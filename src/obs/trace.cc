#include "obs/trace.h"

#include <utility>

#include "common/logging.h"
#include "obs/json_util.h"

namespace bcast::obs {
namespace {

// splitmix64's step and finalizer: tiny, well-mixed, and independent
// of common/rng.h so the trace sampler can never perturb simulation
// randomness.
uint64_t SplitMix64(uint64_t x) {
  uint64_t z = x + 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Result<TraceFormat> ParseTraceFormat(const std::string& name) {
  if (name == "jsonl") return TraceFormat::kJsonl;
  if (name == "csv") return TraceFormat::kCsv;
  return Status::InvalidArgument("unknown trace format: " + name +
                                 " (jsonl|csv)");
}

TraceSink::TraceSink(std::ostream* out, double sample, TraceFormat format,
                     uint64_t seed)
    : out_(out),
      sample_(sample < 0.0 ? 0.0 : (sample > 1.0 ? 1.0 : sample)),
      format_(format),
      sampler_key_(SplitMix64(seed ^ 0xA5A5A5A55A5A5A5Aull)) {
  BCAST_CHECK(out != nullptr);
  if (format_ == TraceFormat::kCsv) {
    *out_ << "time,page,hit,warmup,wait_slots,disk,victim,victim_score,"
             "client\n";
  }
}

TraceSink::TraceSink(std::ofstream file, double sample, TraceFormat format,
                     uint64_t seed)
    : file_(std::move(file)),
      out_(&file_),
      sample_(sample < 0.0 ? 0.0 : (sample > 1.0 ? 1.0 : sample)),
      format_(format),
      sampler_key_(SplitMix64(seed ^ 0xA5A5A5A55A5A5A5Aull)) {
  if (format_ == TraceFormat::kCsv) {
    *out_ << "time,page,hit,warmup,wait_slots,disk,victim,victim_score,"
             "client\n";
  }
}

Result<std::unique_ptr<TraceSink>> TraceSink::Open(const std::string& path,
                                                   double sample,
                                                   TraceFormat format,
                                                   uint64_t seed) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file) {
    return Status::InvalidArgument("cannot open trace file: " + path);
  }
  return std::unique_ptr<TraceSink>(
      new TraceSink(std::move(file), sample, format, seed));
}

TraceSink::~TraceSink() { Flush(); }

bool TraceSink::ShouldSample(uint32_t client, uint64_t ordinal) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++offered_;
  }
  if (sample_ >= 1.0) return true;
  if (sample_ <= 0.0) return false;
  const uint64_t coin =
      SplitMix64(SplitMix64(sampler_key_ ^ client) ^ ordinal);
  // 53 high bits -> uniform double in [0, 1).
  const double u = static_cast<double>(coin >> 11) * 0x1.0p-53;
  return u < sample_;
}

void TraceSink::Record(const RequestEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  std::ostream& out = *out_;
  if (format_ == TraceFormat::kCsv) {
    AppendJsonNumber(out, event.time);
    out << ',' << event.page << ',' << (event.hit ? 1 : 0) << ','
        << (event.warmup ? 1 : 0) << ',';
    AppendJsonNumber(out, event.wait_slots);
    out << ',' << event.disk << ',' << event.victim << ',';
    AppendJsonNumber(out, event.victim_score);
    out << ',' << event.client << '\n';
    return;
  }
  out << "{\"t\": ";
  AppendJsonNumber(out, event.time);
  out << ", \"page\": " << event.page
      << ", \"hit\": " << (event.hit ? "true" : "false")
      << ", \"warmup\": " << (event.warmup ? "true" : "false")
      << ", \"wait\": ";
  AppendJsonNumber(out, event.wait_slots);
  out << ", \"disk\": " << event.disk << ", \"victim\": " << event.victim
      << ", \"victim_score\": ";
  AppendJsonNumber(out, event.victim_score);
  out << ", \"client\": " << event.client << "}\n";
}

void TraceSink::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  out_->flush();
}

}  // namespace bcast::obs
