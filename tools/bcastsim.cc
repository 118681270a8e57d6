// bcastsim — command-line driver for the broadcast-disk simulator.
//
// Runs client/server experiments with every knob of the paper's Tables
// 2-4 exposed as a flag. Three modes:
//
//   --mode=single      one client (default)
//   --mode=population  several clients with spread-out interests
//   --mode=updates     one client against volatile data
//
// Examples:
//
//   bcastsim                                  # paper defaults (D5, LRU)
//   bcastsim --policy=pix --cache_size=500 --offset=500 --noise=30
//   bcastsim --disks=300,1200,3500 --delta=4 --cache_size=1
//   bcastsim --program=skewed --seeds=5       # Bus Stop Paradox, averaged
//   bcastsim --mode=population --clients=5 --policy=pix
//   bcastsim --mode=updates --update_rate=0.2 --consistency=auto-refresh

#include <iostream>
#include <memory>
#include <utility>

#include "common/flags.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"
#include "core/experiment.h"
#include "core/multi_client.h"
#include "core/sim_config.h"
#include "core/simulator.h"
#include "core/updates.h"
#include "obs/registry.h"
#include "obs/run_report.h"
#include "obs/stats_stream.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "pop/client_store.h"
#include "pop/engine.h"
#include "pop/pop_params.h"
#include "pull/pull_params.h"

namespace bcast {
namespace {

// Writes \p report to \p path (no-op when the path is empty). Returns
// false — after printing the error — when the file cannot be written.
bool MaybeWriteReport(const obs::RunReport& report,
                      const std::string& path) {
  if (path.empty()) return true;
  Status st = report.WriteToFile(path);
  if (!st.ok()) {
    std::cerr << "--report_out: " << st.ToString() << "\n";
    return false;
  }
  return true;
}

// Prints a population run: per-client rows stay readable for
// paper-scale populations; a 100k client run gets the aggregate lines
// only.
void PrintPopulation(const MultiClientParams& params,
                     const pop::PopParams& pop, const SimResult& result) {
  constexpr size_t kMaxClientRows = 32;
  if (params.clients.size() <= kMaxClientRows) {
    AsciiTable table({"Client", "InterestShift", "MeanRT", "CacheHit%"});
    for (size_t c = 0; c < params.clients.size(); ++c) {
      const ClientMetrics& m = result.per_client[c];
      table.AddRow({std::to_string(c),
                    std::to_string(params.clients[c].interest_shift),
                    FormatDouble(m.mean_response_time(), 1),
                    FormatDouble(100.0 * m.hit_rate(), 1)});
    }
    table.Print(std::cout);
  } else {
    std::cout << params.clients.size() << " clients over "
              << pop.EffectiveShards() << " shard(s)\n";
  }
  const RunningStat& across = result.response_across_clients;
  std::cout << "Population mean " << FormatDouble(across.mean(), 1)
            << ", max/min " << FormatDouble(across.max() / across.min(), 2)
            << "\n";
}

// Runs the updates mode with the given consistency action name.
int RunUpdates(const SimParams& base, double update_rate,
               double update_theta, const std::string& consistency,
               const std::string& report_out) {
  UpdateParams updates;
  updates.update_rate = update_rate;
  updates.update_theta = update_theta;
  if (consistency == "none") {
    updates.action = ConsistencyAction::kNone;
  } else if (consistency == "invalidate") {
    updates.action = ConsistencyAction::kInvalidate;
  } else if (consistency == "auto-refresh") {
    updates.action = ConsistencyAction::kAutoRefresh;
  } else {
    std::cerr << "unknown --consistency: " << consistency
              << " (none|invalidate|auto-refresh)\n";
    return 2;
  }
  obs::MetricsRegistry registry;
  auto result = RunUpdateSimulation(
      base, updates, report_out.empty() ? nullptr : &registry);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  const double n = static_cast<double>(result->requests);
  AsciiTable table({"Metric", "Value"});
  table.AddRow({"mean response", FormatDouble(result->mean_response_time,
                                              2)});
  table.AddRow({"stale-served %",
                FormatDouble(100.0 * result->StaleFraction(), 2)});
  table.AddRow({"fresh hits %",
                FormatDouble(100.0 * result->fresh_hits / n, 2)});
  table.AddRow({"invalidation refetches %",
                FormatDouble(100.0 * result->invalidation_refetches / n,
                             2)});
  table.AddRow({"cold misses %",
                FormatDouble(100.0 * result->cold_misses / n, 2)});
  table.Print(std::cout);

  if (!report_out.empty()) {
    obs::RunReport report =
        MakeUpdateRunReport(base, updates, *result, "bcastsim");
    report.metrics = registry.TakeSnapshot();
    if (!MaybeWriteReport(report, report_out)) return 1;
  }
  return 0;
}

int Run(int argc, const char* const* argv) {
  SimConfig config;
  std::string mode = "single";
  std::string consistency = "invalidate";
  uint64_t seeds = 1;
  uint64_t clients = 5;
  double update_rate = 0.05;
  double update_theta = 0.95;
  bool csv = false;
  std::string report_out;
  std::string trace_out;
  double trace_sample = 1.0;
  std::string trace_format = "jsonl";
  std::string trace_timeline;
  std::string stats_out;
  double stats_interval = 1000.0;
  bool profile_des = false;
  std::string log_level;

  // The whole simulation surface comes from SimConfig; only the
  // tool-level knobs (mode, output sinks, seed averaging) live here.
  FlagSet flags("bcastsim");
  flags.AddString("mode", &mode, "single | population | updates");
  flags.AddUint64("clients", &clients, "population mode: client count");
  flags.AddDouble("update_rate", &update_rate,
                  "updates mode: updates per broadcast unit");
  flags.AddDouble("update_theta", &update_theta,
                  "updates mode: Zipf skew of update targets");
  flags.AddString("consistency", &consistency,
                  "updates mode: none | invalidate | auto-refresh");
  config.RegisterFlags(&flags);
  flags.AddUint64("seeds", &seeds, "seeds to average over");
  flags.AddBool("csv", &csv, "emit a CSV row instead of a table");
  flags.AddString("report_out", &report_out,
                  "write a JSON run report to this path");
  flags.AddString("trace_out", &trace_out,
                  "write sampled per-request trace here "
                  "(single and population modes)");
  flags.AddDouble("trace_sample", &trace_sample,
                  "trace sampling probability in [0, 1]");
  flags.AddString("trace_format", &trace_format, "trace encoding: jsonl | csv");
  flags.AddString("trace_timeline", &trace_timeline,
                  "write a Chrome trace-event timeline (JSON, loadable in "
                  "Perfetto) here");
  flags.AddString("stats_out", &stats_out,
                  "stream periodic run stats (JSONL, for bcasttop) here");
  flags.AddDouble("stats_interval", &stats_interval,
                  "simulated slots between stats samples");
  flags.AddBool("profile_des", &profile_des,
                "per-event-kind DES dispatch profiling (profile_* report "
                "extras)");
  flags.AddString("log_level", &log_level,
                  "log threshold: debug|info|warn|error|fatal");

  Status st = flags.Parse(argc - 1, argv + 1);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.HelpText();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.HelpText();
    return 0;
  }

  if (!log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(log_level, &level)) {
      std::cerr << "unknown --log_level: " << log_level
                << " (debug|info|warn|error|fatal)\n";
      return 2;
    }
    SetLogThreshold(level);
  }

  // One call owns string parsing, set-ness coherence, and validation.
  Status finalized = config.Finalize(&flags);
  if (!finalized.ok()) {
    std::cerr << finalized.message() << "\n";
    return 2;
  }
  SimParams& params = config.params;

  if (mode != "single" && mode != "population" && mode != "updates") {
    std::cerr << "unknown --mode: " << mode << "\n";
    return 2;
  }
  // A flag only another mode reads would be silently ignored, and a zero
  // count would fail or be bumped at run time: refuse both up front.
  std::string usage_error;
  if (mode != "population") {
    for (const char* name : {"shards", "pop_classes", "force_pop_engine"}) {
      if (flags.WasSet(name)) {
        usage_error = std::string("--") + name +
                      " applies to --mode=population only";
        break;
      }
    }
  }
  if (usage_error.empty() && mode != "single" && flags.WasSet("seeds")) {
    usage_error = "--seeds averages --mode=single runs only";
  }
  if (usage_error.empty() && mode != "single" &&
      flags.WasSet("knows_schedule")) {
    usage_error = "--knows_schedule is a single-client knob; population "
                  "and updates clients have no such setting";
  }
  if (usage_error.empty() && mode == "updates") {
    for (const char* name :
         {"trace_out", "trace_timeline", "stats_out", "profile_des"}) {
      if (flags.WasSet(name)) {
        usage_error = std::string("--") + name +
                      " applies to --mode=single and --mode=population "
                      "only";
        break;
      }
    }
  }
  if (usage_error.empty() && mode == "population" &&
      flags.WasSet("adapt_reopt")) {
    usage_error = "--adapt_reopt re-seats by one client's measured demand; "
                  "it applies to --mode=single only";
  }
  if (usage_error.empty() && mode == "population" && clients == 0) {
    usage_error = "--clients must be at least 1";
  }
  if (usage_error.empty() && seeds == 0) {
    usage_error = "--seeds must be at least 1";
  }
  if (!usage_error.empty()) {
    std::cerr << usage_error << "\n\n" << flags.HelpText();
    return 2;
  }

  if (mode == "updates") {
    return RunUpdates(params, update_rate, update_theta, consistency,
                      report_out);
  }
  // Observability: one registry, and (optionally) one trace sink, one
  // timeline, and one stats stream shared across all seeds. All of them
  // apply to single and population runs alike.
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceSink> trace;
  if (!trace_out.empty()) {
    Result<obs::TraceFormat> format = obs::ParseTraceFormat(trace_format);
    if (!format.ok()) {
      std::cerr << "--trace_format: " << format.status().ToString() << "\n";
      return 2;
    }
    if (trace_sample < 0.0 || trace_sample > 1.0) {
      std::cerr << "--trace_sample must be in [0, 1]\n";
      return 2;
    }
    Result<std::unique_ptr<obs::TraceSink>> sink =
        obs::TraceSink::Open(trace_out, trace_sample, *format, params.seed);
    if (!sink.ok()) {
      std::cerr << "--trace_out: " << sink.status().ToString() << "\n";
      return 1;
    }
    trace = std::move(*sink);
  }
  std::unique_ptr<obs::TimelineWriter> timeline;
  if (!trace_timeline.empty()) {
    Result<std::unique_ptr<obs::TimelineWriter>> writer =
        obs::TimelineWriter::Open(trace_timeline);
    if (!writer.ok()) {
      std::cerr << "--trace_timeline: " << writer.status().ToString()
                << "\n";
      return 1;
    }
    timeline = std::move(*writer);
  }
  std::unique_ptr<obs::StatsWriter> stats;
  if (!stats_out.empty()) {
    Result<std::unique_ptr<obs::StatsWriter>> writer =
        obs::StatsWriter::Open(stats_out);
    if (!writer.ok()) {
      std::cerr << "--stats_out: " << writer.status().ToString() << "\n";
      return 1;
    }
    stats = std::move(*writer);
  }
  SimObservers observers;
  observers.trace = trace.get();
  observers.registry = &registry;
  observers.timeline = timeline.get();
  observers.stats = stats.get();
  observers.stats_interval = stats_interval;
  observers.profile_des = profile_des;

  // Population mode runs `clients` copies of the configured client,
  // their interests spread evenly across the database, on the sharded
  // engine (results are shard-count invariant). Single mode averages
  // over seeds: the report merges every seed, the table shows the last
  // run's breakdown.
  const bool population = mode == "population";
  pop::PopParams pop = config.pop;
  pop.clients = clients;
  MultiClientParams run_params =
      PopulationFromSimParams(params, population ? clients : 1);
  pop::ApplyClassProfiles(pop.classes, &run_params.clients);
  RunningStat response;
  Result<SimResult> last = Status::Internal("no runs");
  Result<SimResult> result = Status::Internal("no runs");
  if (population) {
    result = pop::RunPopulationSimulation(run_params, pop, observers);
  } else {
    for (uint64_t i = 0; i < seeds; ++i) {
      SimParams run = params;
      run.seed = params.seed + i;
      last = RunSimulation(run, observers);
      if (!last.ok()) break;
      response.Add(last->metrics.mean_response_time());
      if (i == 0) {
        result = *last;
      } else {
        result->Merge(*last);
      }
    }
    if (!last.ok()) result = last.status();
  }
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    // A run its setup rejects (a schedule-version cadence that starves a
    // requested page) is a bad flag combination, like Finalize's.
    return result.status().code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  if (trace != nullptr) trace->Flush();
  if (timeline != nullptr) timeline->Flush();
  if (stats != nullptr) stats->Flush();
  if (!report_out.empty()) {
    obs::RunReport report =
        MakeRunReport(run_params, *result, params.ToString(), "bcastsim");
    if (population) pop::AppendPopulationExtras(pop, *result, &report);
    report.metrics = registry.TakeSnapshot();
    if (!MaybeWriteReport(report, report_out)) return 1;
  }
  if (population) {
    PrintPopulation(run_params, pop, *result);
    return 0;
  }
  const ClientMetrics& m = last->metrics;
  const std::vector<double> fractions = m.LocationFractions();

  if (csv) {
    std::cout << params.ToString() << "\n";
    std::cout << "mean_rt,ci95,hit_rate";
    for (size_t d = 1; d < fractions.size(); ++d) {
      std::cout << ",disk" << d << "_frac";
    }
    std::cout << "\n"
              << FormatDouble(response.mean(), 3) << ","
              << FormatDouble(response.ci95_halfwidth(), 3) << ","
              << FormatDouble(m.hit_rate(), 4);
    for (size_t d = 1; d < fractions.size(); ++d) {
      std::cout << "," << FormatDouble(fractions[d], 4);
    }
    std::cout << "\n";
    return 0;
  }

  std::cout << "Config: " << params.ToString() << "\n";
  std::cout << "Program period " << last->period << " slots, "
            << last->empty_slots << " empty; warm-up "
            << last->warmup_requests << " requests; noise moved "
            << last->perturbed_pages << " pages\n\n";
  AsciiTable table({"Metric", "Value"});
  table.AddRow({"mean response (broadcast units)",
                FormatDouble(response.mean(), 2)});
  if (seeds > 1) {
    table.AddRow({"95% CI halfwidth",
                  FormatDouble(response.ci95_halfwidth(), 2)});
  }
  table.AddRow({"cache hit rate %", FormatDouble(100.0 * m.hit_rate(), 2)});
  for (size_t d = 1; d < fractions.size(); ++d) {
    table.AddRow({"served from disk " + std::to_string(d) + " %",
                  FormatDouble(100.0 * fractions[d], 2)});
  }
  table.AddRow({"max response", FormatDouble(m.response_time().max(), 1)});
  table.AddRow({"mean tuning (radio-on slots)",
                FormatDouble(m.tuning_time().mean(), 2)});
  if (last->faults_active) {
    const fault::FaultStats& fs = last->faults;
    table.AddRow({"delivery ratio %",
                  FormatDouble(100.0 * fs.delivery_ratio(), 2)});
    table.AddRow({"loss-delayed fetches",
                  std::to_string(fs.loss_delayed_fetches)});
    table.AddRow({"reception deadline expiries",
                  std::to_string(fs.deadline_expiries)});
    table.AddRow({"doze-missed arrivals",
                  std::to_string(fs.doze_missed_arrivals)});
  }
  if (last->pull_active) {
    const pull::PullStats& ps = last->pull_stats;
    table.AddRow({"pull requests (re-sends)",
                  std::to_string(ps.requests_attempted) + " (" +
                      std::to_string(ps.re_requests) + ")"});
    table.AddRow({"uplink dropped / lost",
                  std::to_string(ps.uplink_dropped) + " / " +
                      std::to_string(ps.uplink_lost)});
    table.AddRow({"pull slots serviced / offered",
                  std::to_string(ps.serviced_pages) + " / " +
                      std::to_string(ps.pull_opportunities)});
    table.AddRow({"pull service share %",
                  FormatDouble(100.0 * ps.pull_service_share(), 2)});
    table.AddRow({"mean pull latency",
                  FormatDouble(ps.pull_latency.mean(), 2)});
    table.AddRow({"mean push latency",
                  FormatDouble(ps.push_latency.mean(), 2)});
  }
  if (last->adapt_active) {
    const adapt::AdaptStats& as = last->adapt_stats;
    table.AddRow({"adapt epochs (rebuilds)",
                  std::to_string(as.epochs) + " (" +
                      std::to_string(as.rebuilds) + ")"});
    table.AddRow({"pages promoted", std::to_string(as.promotions)});
    if (params.adapt.reopt) {
      table.AddRow({"reopt epochs / pages demoted",
                    std::to_string(as.reopts) + " / " +
                        std::to_string(as.demotions)});
    }
    table.AddRow({"pull slots start -> end",
                  std::to_string(as.initial_slots) + " -> " +
                      std::to_string(as.final_slots)});
    if (as.cold_wait.count() > 0) {
      table.AddRow({"cold-class mean response (pinned)",
                    FormatDouble(as.cold_wait.mean(), 2)});
    }
  }
  table.Print(std::cout);
  return 0;
}

}  // namespace
}  // namespace bcast

int main(int argc, char** argv) { return bcast::Run(argc, argv); }
