/// \file trace.h
/// \brief Structured per-request trace sink (sampled JSONL or CSV).
///
/// Where the metrics registry aggregates, the trace sink records: one
/// line per sampled client request with the simulated time, logical
/// page, hit/miss, wait in slots, serving disk, and — when the request
/// evicted a cached page — the victim and the policy's score for it.
/// Downstream tooling (pattern miners, fairness analyses, schedule
/// tuners) consumes the stream without re-running the simulator.
///
/// Sampling is deterministic and order-free: the coin of a request is a
/// splitmix64 hash of (trace seed, client, request ordinal), so two runs
/// with identical seeds trace identical request subsets however their
/// clients' requests interleave — across shard threads, or client by
/// client within a population shard. With sampling off (`sample = 0`) the
/// sink records nothing and the client's fast path stays a null-pointer
/// check.

#ifndef BCAST_OBS_TRACE_H_
#define BCAST_OBS_TRACE_H_

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>

#include "common/status.h"

namespace bcast::obs {

/// \brief Output encoding of the trace stream.
enum class TraceFormat {
  kJsonl,  ///< One JSON object per line (default).
  kCsv,    ///< Header row, then one CSV row per record.
};

/// Parses "jsonl" | "csv".
Result<TraceFormat> ParseTraceFormat(const std::string& name);

/// \brief One sampled client request.
struct RequestEvent {
  /// Simulated time when the request was issued (broadcast units).
  double time = 0.0;

  /// Logical page requested.
  uint64_t page = 0;

  /// Served from the cache?
  bool hit = false;

  /// Issued during cache warm-up (before the measured phase)?
  bool warmup = false;

  /// Slots waited on the broadcast; 0 for hits.
  double wait_slots = 0.0;

  /// Serving disk (0 = fastest); -1 when served from the cache.
  int32_t disk = -1;

  /// Page evicted to admit this one; -1 when nothing was evicted.
  int64_t victim = -1;

  /// The policy's eviction score for the victim (e.g. its lix value);
  /// 0 when the policy has no score or nothing was evicted.
  double victim_score = 0.0;

  /// Issuing client's index in its population (0 in single-client runs).
  uint32_t client = 0;
};

/// \brief Writes sampled `RequestEvent`s to a stream or file.
class TraceSink {
 public:
  /// Creates a sink writing to \p out (unowned; must outlive the sink).
  /// \p sample in [0, 1] is the per-request sampling probability and
  /// \p seed feeds the deterministic sampling stream.
  TraceSink(std::ostream* out, double sample, TraceFormat format,
            uint64_t seed);

  /// Opens \p path for writing and returns a file-backed sink.
  static Result<std::unique_ptr<TraceSink>> Open(const std::string& path,
                                                 double sample,
                                                 TraceFormat format,
                                                 uint64_t seed);

  ~TraceSink();

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// The sampling coin of request \p ordinal (its 1-based position in
  /// the client's request stream, warm-up included) of client
  /// \p client; call exactly once per request so `offered()` counts the
  /// full request stream. Thread-safe.
  bool ShouldSample(uint32_t client, uint64_t ordinal);

  /// Writes one record (call only after `ShouldSample` returned true).
  void Record(const RequestEvent& event);

  /// Requests offered to the sampler so far.
  uint64_t offered() const { return offered_; }

  /// Records actually written.
  uint64_t recorded() const { return recorded_; }

  /// Configured sampling probability.
  double sample_rate() const { return sample_; }

  /// Flushes the underlying stream.
  void Flush();

 private:
  TraceSink(std::ofstream file, double sample, TraceFormat format,
            uint64_t seed);

  // Serializes the stream and the counters across population-engine
  // shards: records of different shards interleave in thread order, but
  // which requests are sampled never depends on it.
  std::mutex mu_;
  std::ofstream file_;  // backing storage when Open()ed; else unused
  std::ostream* out_;
  double sample_;
  TraceFormat format_;
  uint64_t sampler_key_;  // the seed, mixed
  uint64_t offered_ = 0;
  uint64_t recorded_ = 0;
};

}  // namespace bcast::obs

#endif  // BCAST_OBS_TRACE_H_
