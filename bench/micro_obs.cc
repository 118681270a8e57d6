// Microbenchmarks: the observability layer's hot-path costs — histogram
// recording, counter bumps, registry lookups, the trace sampling coin —
// and the end-to-end overhead of running a small simulation with
// observability off vs on (the off case is the <3% regression budget the
// layer must respect).

#include <benchmark/benchmark.h>

#include <sstream>

#include "core/simulator.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/stats_stream.h"
#include "obs/timeline.h"
#include "obs/trace.h"

namespace bcast {
namespace {

void BM_LogHistogramAdd(benchmark::State& state) {
  obs::LogHistogram hist;
  double v = 0.5;
  for (auto _ : state) {
    hist.Add(v);
    v = v * 1.37 + 1.0;
    if (v > 1e6) v = 0.5;
  }
  benchmark::DoNotOptimize(hist.count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramAdd);

void BM_CounterIncrement(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter* counter = registry.GetCounter("bench/counter");
  for (auto _ : state) {
    counter->Increment();
  }
  benchmark::DoNotOptimize(counter->value());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CounterIncrement);

void BM_RegistryLookup(benchmark::State& state) {
  obs::MetricsRegistry registry;
  registry.GetCounter("bench/a");
  registry.GetCounter("bench/b");
  registry.GetCounter("bench/c");
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.GetCounter("bench/b"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistryLookup);

void BM_TraceShouldSample(benchmark::State& state) {
  std::ostringstream sink_out;
  obs::TraceSink sink(&sink_out, /*sample=*/0.1, obs::TraceFormat::kJsonl,
                      /*seed=*/42);
  uint64_t ordinal = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sink.ShouldSample(/*client=*/0, ++ordinal));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TraceShouldSample);

void BM_TimelineCompleteSpan(benchmark::State& state) {
  std::ostringstream out;
  obs::TimelineWriter timeline(&out);
  double t = 0.0;
  for (auto _ : state) {
    if (out.tellp() > (1 << 20)) out.str("");
    timeline.Span(obs::track::kSim, "span", "bench", t, 1.0);
    t += 2.0;
  }
  benchmark::DoNotOptimize(timeline.events_written());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineCompleteSpan);

void BM_TimelineInstantWithArg(benchmark::State& state) {
  std::ostringstream out;
  obs::TimelineWriter timeline(&out);
  double t = 0.0;
  for (auto _ : state) {
    if (out.tellp() > (1 << 20)) out.str("");
    timeline.Instant(obs::track::kSim, "evict", "bench", t,
                     {{"page", 123.0}, {"score", 0.75}});
    t += 1.0;
  }
  benchmark::DoNotOptimize(timeline.events_written());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimelineInstantWithArg);

void BM_StatsSampleWrite(benchmark::State& state) {
  std::ostringstream out;
  obs::StatsWriter writer(&out);
  obs::StatsSample sample;
  sample.t = 1000.0;
  sample.events = 3000;
  sample.requests = 1000;
  sample.hits = 500;
  sample.mean_rt = 42.5;
  sample.served_per_disk = {10, 20, 30};
  for (auto _ : state) {
    if (out.tellp() > (1 << 20)) out.str("");
    writer.Write(sample);
    sample.t += 100.0;
  }
  benchmark::DoNotOptimize(writer.samples_written());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StatsSampleWrite);

SimParams SmallRun() {
  SimParams params;
  params.disk_sizes = {100, 400, 500};
  params.cache_size = 100;
  params.access_range = 300;
  params.measured_requests = 2000;
  return params;
}

void BM_SimulationTracingOff(benchmark::State& state) {
  const SimParams params = SmallRun();
  for (auto _ : state) {
    auto result = RunSimulation(params);
    benchmark::DoNotOptimize(result->metrics.requests());
  }
  state.SetItemsProcessed(state.iterations() * params.measured_requests);
}
BENCHMARK(BM_SimulationTracingOff);

void BM_SimulationTracingOn(benchmark::State& state) {
  const SimParams params = SmallRun();
  std::ostringstream trace_out;
  obs::TraceSink sink(&trace_out, /*sample=*/0.1, obs::TraceFormat::kJsonl,
                      /*seed=*/42);
  obs::MetricsRegistry registry;
  SimObservers observers;
  observers.trace = &sink;
  observers.registry = &registry;
  for (auto _ : state) {
    trace_out.str("");
    auto result = RunSimulation(params, observers);
    benchmark::DoNotOptimize(result->metrics.requests());
  }
  state.SetItemsProcessed(state.iterations() * params.measured_requests);
}
BENCHMARK(BM_SimulationTracingOn);

void BM_SimulationTimelineOn(benchmark::State& state) {
  const SimParams params = SmallRun();
  std::ostringstream timeline_out;
  SimObservers observers;
  for (auto _ : state) {
    timeline_out.str("");
    obs::TimelineWriter timeline(&timeline_out);
    observers.timeline = &timeline;
    auto result = RunSimulation(params, observers);
    benchmark::DoNotOptimize(result->metrics.requests());
  }
  state.SetItemsProcessed(state.iterations() * params.measured_requests);
}
BENCHMARK(BM_SimulationTimelineOn);

}  // namespace
}  // namespace bcast
