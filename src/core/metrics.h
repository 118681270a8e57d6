/// \file metrics.h
/// \brief Per-client performance metrics collected by the simulator.
///
/// The paper's primary metric is client response time in broadcast units
/// (Section 5); Figures 11 and 14 additionally report *where* accesses
/// were served from (cache vs. each broadcast disk), which explains the
/// response-time differences between policies. On top of the paper's
/// means, every metric also feeds a log-bucket histogram so runs can
/// report percentiles (p50/p90/p99) — the Bus Stop Paradox is a tail
/// phenomenon a mean cannot show.

#ifndef BCAST_CORE_METRICS_H_
#define BCAST_CORE_METRICS_H_

#include <cstdint>
#include <vector>

#include "broadcast/types.h"
#include "common/logging.h"
#include "common/stats.h"
#include "obs/histogram.h"

namespace bcast {

/// \brief Metrics for one client over the measured phase of a run.
///
/// All derived quantities (`hit_rate`, `LocationFractions`, histogram
/// summaries) are defined for the empty state — they return 0 / 0-filled
/// vectors when no requests were recorded, never NaN or inf — so that an
/// aborted or zero-request run still serializes to valid JSON.
class ClientMetrics {
 public:
  /// \param num_disks Disks in the broadcast program (for the per-disk
  ///        service breakdown).
  explicit ClientMetrics(uint64_t num_disks)
      : served_per_disk_(num_disks, 0) {}

  /// Records a request served from the cache in \p response_time units
  /// (normally 0 — cache probes are instantaneous in the model).
  void RecordHit(double response_time) {
    response_time_.Add(response_time);
    response_hist_.Add(response_time);
    ++cache_hits_;
  }

  /// Records a request served from the broadcast: the page came off disk
  /// \p disk after \p response_time units.
  void RecordMiss(double response_time, DiskIndex disk) {
    BCAST_CHECK_LT(disk, served_per_disk_.size());
    response_time_.Add(response_time);
    response_hist_.Add(response_time);
    ++served_per_disk_[disk];
  }

  /// Requests recorded.
  uint64_t requests() const { return response_time_.count(); }

  /// Requests served from the cache.
  uint64_t cache_hits() const { return cache_hits_; }

  /// Requests served from the broadcast.
  uint64_t misses() const { return requests() - cache_hits_; }

  /// Fraction of requests served from the cache; 0 when no requests were
  /// recorded.
  double hit_rate() const;

  /// Response-time statistics over all recorded requests.
  const RunningStat& response_time() const { return response_time_; }

  /// Mean response time in broadcast units (the paper's headline number).
  double mean_response_time() const { return response_time_.mean(); }

  /// Response-time distribution (broadcast units) for percentile queries.
  const obs::LogHistogram& response_histogram() const {
    return response_hist_;
  }

  /// Requests served from each disk (index 0 = fastest).
  const std::vector<uint64_t>& served_per_disk() const {
    return served_per_disk_;
  }

  /// Fractions of requests served from [cache, disk 0, disk 1, ...];
  /// sums to 1 when any requests were recorded, and is all-zero (with the
  /// same shape) when none were. This is the breakdown Figures 11 and 14
  /// plot.
  std::vector<double> LocationFractions() const;

  /// Records radio-on time for one request (broadcast units). With a
  /// known schedule a miss costs 1 slot of listening; without one it
  /// costs the whole wait (see ClientRunConfig::knows_schedule).
  void RecordTuning(double slots) {
    tuning_time_.Add(slots);
    tuning_hist_.Add(slots);
  }

  /// Radio-on time statistics (the paper's Section-2.1 energy argument).
  const RunningStat& tuning_time() const { return tuning_time_; }

  /// Radio-on time distribution for percentile queries.
  const obs::LogHistogram& tuning_histogram() const { return tuning_hist_; }

  /// Folds \p other into this metric set (multi-client / multi-seed
  /// aggregation). Disk breakdowns must have the same shape.
  void Merge(const ClientMetrics& other);

 private:
  RunningStat response_time_;
  RunningStat tuning_time_;
  obs::LogHistogram response_hist_;
  obs::LogHistogram tuning_hist_;
  uint64_t cache_hits_ = 0;
  std::vector<uint64_t> served_per_disk_;
};

}  // namespace bcast

#endif  // BCAST_CORE_METRICS_H_
