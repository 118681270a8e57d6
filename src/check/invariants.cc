#include "check/invariants.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "broadcast/schedule_optimizer.h"
#include "common/math_util.h"

namespace bcast::check {
namespace {

std::optional<double> FindExtra(const obs::RunReport& report,
                                const std::string& key) {
  for (const auto& [k, v] : report.extra) {
    if (k == key) return v;
  }
  return std::nullopt;
}

double ExtraOr(const obs::RunReport& report, const std::string& key,
               double fallback) {
  return FindExtra(report, key).value_or(fallback);
}

std::string JoinGaps(const std::vector<uint64_t>& gaps, size_t limit = 8) {
  std::ostringstream out;
  out << "{";
  for (size_t i = 0; i < gaps.size() && i < limit; ++i) {
    if (i) out << ",";
    out << gaps[i];
  }
  if (gaps.size() > limit) out << ",...";
  out << "}";
  return out.str();
}

// Arrival slots of every page, from the raw slot vector only.
std::vector<std::vector<uint64_t>> CollectArrivals(
    const BroadcastProgram& program) {
  std::vector<std::vector<uint64_t>> arrivals(program.num_pages());
  const std::vector<PageId>& slots = program.slots();
  for (uint64_t s = 0; s < slots.size(); ++s) {
    if (slots[s] != kEmptySlot && slots[s] < program.num_pages()) {
      arrivals[slots[s]].push_back(s);
    }
  }
  return arrivals;
}

// Wrap-around gaps between consecutive arrivals; recomputed here rather
// than via BroadcastProgram::InterArrivalGaps so the check does not trust
// the class under test.
std::vector<uint64_t> GapsOf(const std::vector<uint64_t>& arrivals,
                             uint64_t period) {
  std::vector<uint64_t> gaps;
  gaps.reserve(arrivals.size());
  for (size_t i = 0; i + 1 < arrivals.size(); ++i) {
    gaps.push_back(arrivals[i + 1] - arrivals[i]);
  }
  if (!arrivals.empty()) {
    gaps.push_back(period - arrivals.back() + arrivals.front());
  }
  return gaps;
}

void CheckSummary(CheckList* list, const std::string& prefix,
                  const obs::HistogramSummary& s) {
  std::ostringstream values;
  values << "min=" << s.min << " p50=" << s.p50 << " p90=" << s.p90
         << " p99=" << s.p99 << " max=" << s.max << " mean=" << s.mean;
  list->Add(prefix + ".percentiles_monotone",
            s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 &&
                s.p99 <= s.max,
            values.str());
  list->Add(prefix + ".mean_within_range",
            s.count == 0 || (s.mean >= s.min && s.mean <= s.max),
            values.str());
  list->Add(prefix + ".nonnegative",
            s.min >= 0.0 && s.mean >= 0.0 && s.max >= 0.0, values.str());
}

}  // namespace

void CheckList::Add(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

void CheckList::Extend(const CheckList& other) {
  checks_.insert(checks_.end(), other.checks_.begin(), other.checks_.end());
}

bool CheckList::all_ok() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

size_t CheckList::failures() const {
  return static_cast<size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [](const Check& c) { return !c.ok; }));
}

void CheckList::Print(std::ostream& out) const {
  for (const Check& c : checks_) {
    if (c.ok) {
      out << "ok   " << c.name << "\n";
    } else {
      out << "FAIL " << c.name;
      if (!c.detail.empty()) out << ": " << c.detail;
      out << "\n";
    }
  }
}

CheckList CheckProgramInvariants(const BroadcastProgram& program,
                                 bool expect_regular) {
  CheckList list;
  const std::vector<PageId>& slots = program.slots();
  const uint64_t period = slots.size();
  list.Add("program.nonempty_period", period > 0,
           "period is " + std::to_string(period));

  uint64_t empty = 0;
  bool ids_in_range = true;
  for (const PageId p : slots) {
    if (p == kEmptySlot) {
      ++empty;
    } else if (p >= program.num_pages()) {
      ids_in_range = false;
    }
  }
  list.Add("program.slot_ids_in_range", ids_in_range);
  list.Add("program.empty_slot_accounting", empty == program.EmptySlots(),
           "counted " + std::to_string(empty) + ", program claims " +
               std::to_string(program.EmptySlots()));

  const std::vector<std::vector<uint64_t>> arrivals =
      CollectArrivals(program);
  bool all_present = true;
  bool all_regular = true;
  bool gaps_sum_to_period = true;
  std::string irregular_detail;
  for (PageId p = 0; p < program.num_pages(); ++p) {
    if (arrivals[p].empty()) {
      all_present = false;
      continue;
    }
    const std::vector<uint64_t> gaps = GapsOf(arrivals[p], period);
    uint64_t sum = 0;
    for (const uint64_t g : gaps) sum += g;
    if (sum != period) gaps_sum_to_period = false;
    if (std::adjacent_find(gaps.begin(), gaps.end(),
                           std::not_equal_to<>()) != gaps.end()) {
      if (all_regular) {
        irregular_detail = "page " + std::to_string(p) + " gaps " +
                           JoinGaps(gaps) + " (first of possibly many)";
      }
      all_regular = false;
    }
  }
  list.Add("program.every_page_broadcast", all_present,
           "a page with zero arrivals would stall any client needing it");
  list.Add("program.gaps_sum_to_period", gaps_sum_to_period);
  if (expect_regular) {
    list.Add("program.fixed_inter_arrival", all_regular, irregular_detail);
  }

  // Service mix: pages on one disk must share a frequency, and disks must
  // be ordered fastest-first.
  std::vector<uint64_t> disk_freq(program.num_disks(), 0);
  bool same_disk_same_freq = true;
  std::string mix_detail;
  for (PageId p = 0; p < program.num_pages(); ++p) {
    const DiskIndex d = program.DiskOf(p);
    if (d == kNoDisk || d >= program.num_disks()) {
      same_disk_same_freq = false;
      mix_detail = "page " + std::to_string(p) + " has no valid disk";
      break;
    }
    const uint64_t freq = arrivals[p].size();
    if (disk_freq[d] == 0) {
      disk_freq[d] = freq;
    } else if (disk_freq[d] != freq) {
      same_disk_same_freq = false;
      mix_detail = "disk " + std::to_string(d) + " carries pages at " +
                   std::to_string(disk_freq[d]) + " and " +
                   std::to_string(freq) + " arrivals/period";
      break;
    }
  }
  list.Add("program.same_disk_same_frequency", same_disk_same_freq,
           mix_detail);
  const bool non_increasing =
      std::is_sorted(disk_freq.rbegin(), disk_freq.rend());
  list.Add("program.disk_frequencies_non_increasing",
           !same_disk_same_freq || non_increasing,
           "per-disk frequencies " + JoinGaps(disk_freq));
  return list;
}

CheckList CheckLayoutProgramAgreement(const DiskLayout& layout,
                                      const BroadcastProgram& program) {
  CheckList list;
  list.Add("layout.page_count",
           program.num_pages() == layout.TotalPages(),
           "program has " + std::to_string(program.num_pages()) +
               " pages, layout " + std::to_string(layout.TotalPages()));
  list.Add("layout.disk_count", program.num_disks() == layout.NumDisks(),
           "program has " + std::to_string(program.num_disks()) +
               " disks, layout " + std::to_string(layout.NumDisks()));
  if (!list.all_ok()) return list;

  // The Section-2.2 period identity, with every ingredient recomputed
  // from the layout: max_chunks = LCM(rel_freqs), disk i contributes
  // ceil(size_i / (max_chunks / freq_i)) slots per minor cycle, and the
  // period is max_chunks minor cycles.
  Result<uint64_t> lcm = LcmOfAll(layout.rel_freqs);
  if (!lcm.ok()) {
    list.Add("layout.period_identity", false, lcm.status().ToString());
    return list;
  }
  uint64_t minor_cycle_len = 0;
  for (size_t i = 0; i < layout.NumDisks(); ++i) {
    minor_cycle_len +=
        CeilDiv(layout.sizes[i], *lcm / layout.rel_freqs[i]);
  }
  const uint64_t expected_period = *lcm * minor_cycle_len;
  list.Add("layout.period_identity", program.period() == expected_period,
           "period " + std::to_string(program.period()) +
               ", LCM(rel_freqs) * minor_cycle_len = " +
               std::to_string(*lcm) + " * " +
               std::to_string(minor_cycle_len) + " = " +
               std::to_string(expected_period));

  // Every page of disk i must appear exactly rel_freq(i) times and be
  // attributed to disk i.
  const std::vector<std::vector<uint64_t>> arrivals =
      CollectArrivals(program);
  bool frequencies_match = true;
  bool disks_match = true;
  std::string freq_detail;
  PageId page = 0;
  for (size_t d = 0; d < layout.NumDisks(); ++d) {
    for (uint64_t k = 0; k < layout.sizes[d]; ++k, ++page) {
      if (arrivals[page].size() != layout.rel_freqs[d] &&
          frequencies_match) {
        frequencies_match = false;
        freq_detail = "page " + std::to_string(page) + " appears " +
                      std::to_string(arrivals[page].size()) +
                      " times, rel_freq is " +
                      std::to_string(layout.rel_freqs[d]);
      }
      if (program.DiskOf(page) != d) disks_match = false;
    }
  }
  list.Add("layout.per_page_frequency_is_rel_freq", frequencies_match,
           freq_detail);
  list.Add("layout.disk_assignment", disks_match);
  return list;
}

CheckList CheckReportInvariants(const obs::RunReport& report) {
  CheckList list;
  CheckSummary(&list, "report.response", report.response);
  CheckSummary(&list, "report.tuning", report.tuning);

  list.Add("report.hits_within_requests",
           report.cache_hits <= report.requests,
           std::to_string(report.cache_hits) + " hits of " +
               std::to_string(report.requests) + " requests");
  const double rate = report.hit_rate();
  list.Add("report.hit_rate_in_unit_interval", rate >= 0.0 && rate <= 1.0);

  if (!report.served_per_disk.empty()) {
    uint64_t served = 0;
    for (const uint64_t n : report.served_per_disk) served += n;
    list.Add("report.request_accounting",
             report.cache_hits + served == report.requests,
             std::to_string(report.cache_hits) + " hits + " +
                 std::to_string(served) + " disk serves != " +
                 std::to_string(report.requests) + " requests");
  }
  if (report.response.count > 0 && report.requests > 0) {
    list.Add("report.response_count_is_requests",
             report.response.count == report.requests,
             "response histogram holds " +
                 std::to_string(report.response.count) + " samples for " +
                 std::to_string(report.requests) + " requests");
  }
  list.Add("report.throughput_nonnegative",
           report.slots_per_second >= 0.0 &&
               report.events_per_second >= 0.0);
  list.Add("report.timings_nonnegative",
           report.timings.total_seconds >= 0.0 &&
               report.timings.measured_seconds >= 0.0 &&
               report.timings.warmup_seconds >= 0.0 &&
               report.timings.setup_seconds >= 0.0 &&
               report.timings.build_program_seconds >= 0.0);
  list.Add("report.end_time_nonnegative", report.end_time >= 0.0);

  // Uplink accounting, for reports produced under hybrid push-pull.
  if (FindExtra(report, "pull_requests").has_value()) {
    const double requests = ExtraOr(report, "pull_requests", 0.0);
    const double re_requests = ExtraOr(report, "pull_re_requests", 0.0);
    const double accepted = ExtraOr(report, "pull_uplink_accepted", 0.0);
    const double dropped = ExtraOr(report, "pull_uplink_dropped", 0.0);
    const double lost = ExtraOr(report, "pull_uplink_lost", 0.0);
    const double serviced = ExtraOr(report, "pull_serviced", 0.0);
    const double opportunities = ExtraOr(report, "pull_opportunities", 0.0);
    std::ostringstream detail;
    detail << "requests=" << requests << " re_requests=" << re_requests
           << " accepted=" << accepted << " dropped=" << dropped
           << " lost=" << lost << " serviced=" << serviced
           << " opportunities=" << opportunities;
    list.Add("report.pull_uplink_accounting",
             accepted + dropped == requests + re_requests, detail.str());
    list.Add("report.pull_losses_within_accepted", lost <= accepted,
             detail.str());
    list.Add("report.pull_service_within_capacity",
             serviced <= opportunities && serviced <= accepted - lost,
             detail.str());
  }

  // Reception accounting, for reports produced under channel faults.
  if (FindExtra(report, "fault_attempts").has_value()) {
    const double attempts = ExtraOr(report, "fault_attempts", 0.0);
    const double delivered = ExtraOr(report, "fault_delivered", 0.0);
    const double lost = ExtraOr(report, "fault_lost", 0.0);
    const double corrupted = ExtraOr(report, "fault_corrupted_rx", 0.0);
    const double retries = ExtraOr(report, "fault_retries", 0.0);
    const double ratio = ExtraOr(report, "fault_delivery_ratio", 1.0);
    std::ostringstream detail;
    detail << "attempts=" << attempts << " delivered=" << delivered
           << " lost=" << lost << " corrupted=" << corrupted
           << " retries=" << retries << " ratio=" << ratio;
    list.Add("report.fault_reception_accounting",
             delivered + lost + corrupted == attempts, detail.str());
    list.Add("report.fault_retries_are_failures",
             retries == lost + corrupted, detail.str());
    list.Add("report.fault_delivery_ratio_consistent",
             ratio >= 0.0 && ratio <= 1.0 &&
                 (attempts == 0.0 ||
                  std::abs(ratio - delivered / attempts) < 1e-9),
             detail.str());
  }

  // Schedule-optimizer provenance. Reports predating the optimizer
  // frontier carry no marker and pass vacuously; a recorded name must be
  // one the registry knows.
  if (!report.optimizer.empty()) {
    const std::vector<std::string>& names = ScheduleOptimizerNames();
    const bool known = std::find(names.begin(), names.end(),
                                 report.optimizer) != names.end();
    list.Add("report.optimizer_known", known,
             known ? "produced by the " + report.optimizer + " optimizer"
                   : "optimizer '" + report.optimizer +
                         "' is not in the registry");
  } else {
    list.Add("report.optimizer_known", true, "not recorded");
  }
  return list;
}

FaultSweepPoint FaultSweepPointFromReport(const obs::RunReport& report) {
  FaultSweepPoint point;
  point.loss = ExtraOr(report, "fault_loss", 0.0);
  point.corrupt = ExtraOr(report, "fault_corrupt", 0.0);
  point.delivery_ratio = ExtraOr(report, "fault_delivery_ratio", 1.0);
  point.backoff_cap = ExtraOr(report, "fault_backoff_cap", 0.0);
  point.mean_response = report.response.mean;
  point.period = static_cast<double>(report.period);
  return point;
}

CheckList CheckFaultDegradation(std::vector<FaultSweepPoint> points,
                                double slack, double delivery_tolerance) {
  CheckList list;
  list.Add("fault_sweep.nonempty", !points.empty(),
           "a sweep needs at least one point");
  if (points.empty()) return list;
  std::stable_sort(points.begin(), points.end(),
                   [](const FaultSweepPoint& a, const FaultSweepPoint& b) {
                     return a.FailureRate() < b.FailureRate();
                   });

  const FaultSweepPoint& anchor = points.front();
  bool latency_monotone = true;
  bool latency_bounded = true;
  bool delivery_tracks = true;
  bool delivery_monotone = true;
  std::string monotone_detail;
  std::string bound_detail;
  std::string tracks_detail;
  std::string delivery_detail;
  for (size_t i = 0; i < points.size(); ++i) {
    const FaultSweepPoint& p = points[i];
    const double f = p.FailureRate();
    if (i > 0) {
      const FaultSweepPoint& prev = points[i - 1];
      // Worse channel, no faster: allow `slack` relative statistical
      // wiggle between adjacent points.
      if (p.mean_response < prev.mean_response * (1.0 - slack)) {
        latency_monotone = false;
        std::ostringstream out;
        out << "mean rt fell from " << prev.mean_response << " (f="
            << prev.FailureRate() << ") to " << p.mean_response
            << " (f=" << f << ")";
        monotone_detail = out.str();
      }
      if (p.delivery_ratio > prev.delivery_ratio + delivery_tolerance) {
        delivery_monotone = false;
        std::ostringstream out;
        out << "delivery ratio rose from " << prev.delivery_ratio
            << " to " << p.delivery_ratio << " at f=" << f;
        delivery_detail = out.str();
      }
    }
    // Renewal bound: each failed reception costs at most one more
    // inter-arrival gap (<= period) plus one capped backoff, and a
    // fetch sees f/(1-f) failures in expectation.
    const double budget =
        anchor.mean_response +
        (f >= 1.0 ? std::numeric_limits<double>::infinity()
                  : f / (1.0 - f) * (p.period + p.backoff_cap)) *
            (1.0 + slack);
    if (p.mean_response > budget + anchor.mean_response * slack) {
      latency_bounded = false;
      std::ostringstream out;
      out << "mean rt " << p.mean_response << " at f=" << f
          << " exceeds bound " << budget;
      bound_detail = out.str();
    }
    if (std::abs(p.delivery_ratio - (1.0 - f)) > delivery_tolerance) {
      delivery_tracks = false;
      std::ostringstream out;
      out << "delivery ratio " << p.delivery_ratio << " at f=" << f
          << ", expected ~" << (1.0 - f);
      tracks_detail = out.str();
    }
  }
  list.Add("fault_sweep.latency_monotone", latency_monotone,
           monotone_detail);
  list.Add("fault_sweep.latency_bounded", latency_bounded, bound_detail);
  list.Add("fault_sweep.delivery_tracks_rate", delivery_tracks,
           tracks_detail);
  list.Add("fault_sweep.delivery_monotone", delivery_monotone,
           delivery_detail);
  return list;
}

PullSweepPoint PullSweepPointFromReport(const obs::RunReport& report) {
  PullSweepPoint point;
  point.pull_slots = ExtraOr(report, "pull_slots", 0.0);
  point.cold_mean_rt = ExtraOr(report, "pull_cold_mean_rt", 0.0);
  point.cold_count = ExtraOr(report, "pull_cold_count", 0.0);
  point.mean_response = report.response.mean;
  point.requests = ExtraOr(report, "pull_requests", 0.0);
  point.re_requests = ExtraOr(report, "pull_re_requests", 0.0);
  point.uplink_accepted = ExtraOr(report, "pull_uplink_accepted", 0.0);
  point.uplink_dropped = ExtraOr(report, "pull_uplink_dropped", 0.0);
  point.uplink_lost = ExtraOr(report, "pull_uplink_lost", 0.0);
  point.serviced = ExtraOr(report, "pull_serviced", 0.0);
  point.opportunities = ExtraOr(report, "pull_opportunities", 0.0);
  return point;
}

CheckList CheckPullImprovement(std::vector<PullSweepPoint> points,
                               double slack) {
  CheckList list;
  list.Add("pull_sweep.nonempty", !points.empty(),
           "a sweep needs at least one point");
  if (points.empty()) return list;
  std::stable_sort(points.begin(), points.end(),
                   [](const PullSweepPoint& a, const PullSweepPoint& b) {
                     return a.pull_slots < b.pull_slots;
                   });

  bool distinct = true;
  std::string distinct_detail;
  for (size_t i = 1; i < points.size(); ++i) {
    if (points[i].pull_slots == points[i - 1].pull_slots) {
      distinct = false;
      std::ostringstream out;
      out << "two sweep points share pull_slots=" << points[i].pull_slots;
      distinct_detail = out.str();
    }
  }
  list.Add("pull_sweep.capacities_distinct", distinct, distinct_detail);
  list.Add("pull_sweep.spans_capacities", points.size() >= 2,
           "monotonicity needs at least two capacities");

  bool anchors_inert = true;
  std::string anchor_detail;
  bool accounting = true;
  std::string accounting_detail;
  bool cold_improves = true;
  std::string cold_detail;
  const PullSweepPoint* prev_cold = nullptr;
  for (const PullSweepPoint& p : points) {
    if (p.pull_slots == 0.0 && p.serviced != 0.0) {
      anchors_inert = false;
      std::ostringstream out;
      out << "zero-capacity point serviced " << p.serviced << " pages";
      anchor_detail = out.str();
    }
    const bool adds_up =
        p.uplink_accepted + p.uplink_dropped == p.requests + p.re_requests &&
        p.uplink_lost <= p.uplink_accepted &&
        p.serviced <= p.opportunities &&
        p.serviced <= p.uplink_accepted - p.uplink_lost;
    if (!adds_up) {
      accounting = false;
      std::ostringstream out;
      out << "at pull_slots=" << p.pull_slots << ": requests=" << p.requests
          << " re_requests=" << p.re_requests
          << " accepted=" << p.uplink_accepted
          << " dropped=" << p.uplink_dropped << " lost=" << p.uplink_lost
          << " serviced=" << p.serviced
          << " opportunities=" << p.opportunities;
      accounting_detail = out.str();
    }
    // Cold-page latency must not rise as pull capacity grows. Points
    // with no cold fetches prove nothing and are skipped.
    if (p.cold_count > 0.0) {
      if (prev_cold != nullptr &&
          p.cold_mean_rt > prev_cold->cold_mean_rt * (1.0 + slack)) {
        cold_improves = false;
        std::ostringstream out;
        out << "cold mean rt rose from " << prev_cold->cold_mean_rt
            << " (pull_slots=" << prev_cold->pull_slots << ") to "
            << p.cold_mean_rt << " (pull_slots=" << p.pull_slots << ")";
        cold_detail = out.str();
      }
      prev_cold = &p;
    }
  }
  list.Add("pull_sweep.zero_capacity_inert", anchors_inert, anchor_detail);
  list.Add("pull_sweep.uplink_accounting", accounting, accounting_detail);
  list.Add("pull_sweep.cold_latency_improves", cold_improves, cold_detail);
  return list;
}

AdaptSweepPoint AdaptSweepPointFromReport(const obs::RunReport& report) {
  AdaptSweepPoint point;
  point.epoch_cycles = ExtraOr(report, "adapt_epoch_cycles", 0.0);
  // The pinned cold class when the controller reported one; the hybrid
  // cold class otherwise (a static hybrid run never re-seats pages, so
  // the two sets coincide there).
  point.cold_count = ExtraOr(report, "adapt_cold_count", 0.0);
  if (point.cold_count > 0.0) {
    point.cold_mean_rt = ExtraOr(report, "adapt_cold_mean_rt", 0.0);
  } else {
    point.cold_mean_rt = ExtraOr(report, "pull_cold_mean_rt", 0.0);
    point.cold_count = ExtraOr(report, "pull_cold_count", 0.0);
  }
  point.mean_response = report.response.mean;
  point.epochs = ExtraOr(report, "adapt_epochs", 0.0);
  point.rebuilds = ExtraOr(report, "adapt_rebuilds", 0.0);
  point.promotions = ExtraOr(report, "adapt_promotions", 0.0);
  point.slot_grows = ExtraOr(report, "adapt_slot_grows", 0.0);
  point.slot_shrinks = ExtraOr(report, "adapt_slot_shrinks", 0.0);
  point.min_slots = ExtraOr(report, "adapt_min_slots", 0.0);
  point.max_slots = ExtraOr(report, "adapt_max_slots", 0.0);
  point.initial_slots = ExtraOr(report, "adapt_initial_slots", 0.0);
  point.final_slots = ExtraOr(report, "adapt_final_slots", 0.0);
  point.slot_range_late = ExtraOr(report, "adapt_slot_range_late", 0.0);
  return point;
}

CheckList CheckAdaptImprovement(std::vector<AdaptSweepPoint> points,
                                double slack, bool require_grow) {
  CheckList list;
  list.Add("adapt_sweep.nonempty", !points.empty(),
           "the comparison needs at least one point");
  if (points.empty()) return list;

  // Partition into static anchors and adaptive points.
  const AdaptSweepPoint* best_anchor = nullptr;
  bool have_adaptive = false;
  bool anchors_inert = true;
  std::string anchor_detail;
  bool cold_measured = true;
  std::string measured_detail;
  for (const AdaptSweepPoint& p : points) {
    if (p.cold_count <= 0.0) {
      cold_measured = false;
      std::ostringstream out;
      out << "point with epoch_cycles=" << p.epoch_cycles
          << " measured no cold-class fetches";
      measured_detail = out.str();
    }
    if (p.epoch_cycles == 0.0) {
      if (p.epochs != 0.0 || p.rebuilds != 0.0 || p.promotions != 0.0) {
        anchors_inert = false;
        std::ostringstream out;
        out << "static anchor reports controller activity: epochs="
            << p.epochs << " rebuilds=" << p.rebuilds
            << " promotions=" << p.promotions;
        anchor_detail = out.str();
      }
      if (p.cold_count > 0.0 &&
          (best_anchor == nullptr ||
           p.cold_mean_rt < best_anchor->cold_mean_rt)) {
        best_anchor = &p;
      }
    } else {
      have_adaptive = true;
    }
  }
  list.Add("adapt_sweep.has_static_anchor", best_anchor != nullptr,
           "need a static (epoch_cycles=0) point with a measured cold "
           "class to compare against");
  list.Add("adapt_sweep.has_adaptive_point", have_adaptive,
           "need at least one adaptive (epoch_cycles>0) point");
  list.Add("adapt_sweep.cold_class_measured", cold_measured,
           measured_detail);
  list.Add("adapt_sweep.static_anchor_inert", anchors_inert,
           anchor_detail);

  bool controller_ran = true;
  std::string ran_detail;
  bool cold_improves = true;
  std::string cold_detail;
  bool slots_bounded = true;
  std::string bounds_detail;
  bool converges = true;
  std::string converge_detail;
  for (const AdaptSweepPoint& p : points) {
    if (p.epoch_cycles == 0.0) continue;
    if (p.epochs <= 0.0) {
      controller_ran = false;
      std::ostringstream out;
      out << "adaptive point (epoch_cycles=" << p.epoch_cycles
          << ") reports zero controller epochs";
      ran_detail = out.str();
    }
    // The tentpole claim: the repaired program serves the pinned cold
    // class strictly faster than the static program did.
    if (best_anchor != nullptr && p.cold_count > 0.0 &&
        !(p.cold_mean_rt < best_anchor->cold_mean_rt * (1.0 - slack))) {
      cold_improves = false;
      std::ostringstream out;
      out << "adaptive cold mean rt " << p.cold_mean_rt
          << " (epoch_cycles=" << p.epoch_cycles
          << ") does not improve on static " << best_anchor->cold_mean_rt;
      cold_detail = out.str();
    }
    if (p.max_slots > 0.0 &&
        (p.final_slots < p.min_slots || p.final_slots > p.max_slots)) {
      slots_bounded = false;
      std::ostringstream out;
      out << "final slot count " << p.final_slots << " outside ["
          << p.min_slots << ", " << p.max_slots << "]";
      bounds_detail = out.str();
    }
    // Bounded oscillation: over the last half of the epochs the slot
    // count moved by at most one step.
    if (p.slot_range_late > 1.0) {
      converges = false;
      std::ostringstream out;
      out << "late-epoch slot range " << p.slot_range_late
          << " (controller still hunting)";
      converge_detail = out.str();
    }
  }
  if (require_grow) {
    // The backlog gate: some adaptive point must have moved the split
    // toward pull and ended above where it started. A sweep whose
    // controller only held or shrank under a sustained queue is broken
    // in the direction the scenario was built to exercise.
    bool grew = false;
    for (const AdaptSweepPoint& p : points) {
      if (p.epoch_cycles == 0.0) continue;
      if (p.slot_grows > 0.0 && p.final_slots > p.initial_slots) {
        grew = true;
        break;
      }
    }
    list.Add("adapt_sweep.slot_split_grew", grew,
             "no adaptive point grew its pull-slot split (slot_grows > 0 "
             "and final_slots > initial_slots)");
  }
  list.Add("adapt_sweep.controller_ran", controller_ran, ran_detail);
  list.Add("adapt_sweep.cold_latency_improves", cold_improves,
           cold_detail);
  list.Add("adapt_sweep.slots_within_bounds", slots_bounded,
           bounds_detail);
  list.Add("adapt_sweep.slot_controller_converges", converges,
           converge_detail);
  return list;
}

}  // namespace bcast::check
