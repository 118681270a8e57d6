#include "obs/trace.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace bcast::obs {
namespace {

RequestEvent SampleEvent() {
  RequestEvent event;
  event.time = 123.5;
  event.page = 42;
  event.hit = false;
  event.warmup = false;
  event.wait_slots = 17.0;
  event.disk = 2;
  event.victim = 7;
  event.victim_score = 0.25;
  event.client = 3;
  return event;
}

TEST(TraceFormatTest, Parse) {
  ASSERT_TRUE(ParseTraceFormat("jsonl").ok());
  EXPECT_EQ(*ParseTraceFormat("jsonl"), TraceFormat::kJsonl);
  ASSERT_TRUE(ParseTraceFormat("csv").ok());
  EXPECT_EQ(*ParseTraceFormat("csv"), TraceFormat::kCsv);
  EXPECT_FALSE(ParseTraceFormat("xml").ok());
}

TEST(TraceSinkTest, SampleOneRecordsEverything) {
  std::ostringstream out;
  TraceSink sink(&out, 1.0, TraceFormat::kJsonl, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(sink.ShouldSample(0, i + 1));
  }
  EXPECT_EQ(sink.offered(), 50u);
}

TEST(TraceSinkTest, SampleZeroRecordsNothing) {
  std::ostringstream out;
  TraceSink sink(&out, 0.0, TraceFormat::kJsonl, 1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(sink.ShouldSample(0, i + 1));
  }
  EXPECT_EQ(sink.offered(), 50u);
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_TRUE(out.str().empty());
}

TEST(TraceSinkTest, SamplingIsDeterministicInSeed) {
  const auto decisions = [](uint64_t seed) {
    std::ostringstream out;
    TraceSink sink(&out, 0.3, TraceFormat::kJsonl, seed);
    std::vector<bool> result;
    for (int i = 0; i < 200; ++i) {
      result.push_back(sink.ShouldSample(i % 4, i / 4 + 1));
    }
    return result;
  };
  EXPECT_EQ(decisions(42), decisions(42));
  EXPECT_NE(decisions(42), decisions(43));
}

TEST(TraceSinkTest, SampleRateIsRoughlyRespected) {
  std::ostringstream out;
  TraceSink sink(&out, 0.2, TraceFormat::kJsonl, 7);
  int sampled = 0;
  for (int i = 0; i < 10000; ++i) {
    if (sink.ShouldSample(i % 10, i / 10 + 1)) ++sampled;
  }
  EXPECT_GT(sampled, 1600);
  EXPECT_LT(sampled, 2400);
}

TEST(TraceSinkTest, CoinDependsOnlyOnClientAndOrdinal) {
  // The same (client, ordinal) coins in two different offer orders: the
  // decisions match key by key.
  std::ostringstream out_a;
  std::ostringstream out_b;
  TraceSink a(&out_a, 0.3, TraceFormat::kJsonl, 42);
  TraceSink b(&out_b, 0.3, TraceFormat::kJsonl, 42);
  std::vector<bool> forward;
  for (uint32_t c = 0; c < 5; ++c) {
    for (uint64_t n = 1; n <= 40; ++n) forward.push_back(a.ShouldSample(c, n));
  }
  std::vector<bool> backward(forward.size());
  for (uint64_t n = 40; n >= 1; --n) {
    for (uint32_t c = 5; c-- > 0;) {
      backward[c * 40 + (n - 1)] = b.ShouldSample(c, n);
    }
  }
  EXPECT_EQ(forward, backward);
  EXPECT_EQ(a.offered(), b.offered());
  // And clients do not share one coin sequence.
  EXPECT_NE(std::vector<bool>(forward.begin(), forward.begin() + 40),
            std::vector<bool>(forward.begin() + 40, forward.begin() + 80));
}

TEST(TraceSinkTest, JsonlRecordContents) {
  std::ostringstream out;
  TraceSink sink(&out, 1.0, TraceFormat::kJsonl, 1);
  ASSERT_TRUE(sink.ShouldSample(3, 1));
  sink.Record(SampleEvent());
  const std::string line = out.str();
  EXPECT_NE(line.find("\"t\": 123.5"), std::string::npos) << line;
  EXPECT_NE(line.find("\"page\": 42"), std::string::npos);
  EXPECT_NE(line.find("\"hit\": false"), std::string::npos);
  EXPECT_NE(line.find("\"warmup\": false"), std::string::npos);
  EXPECT_NE(line.find("\"wait\": 17"), std::string::npos);
  EXPECT_NE(line.find("\"disk\": 2"), std::string::npos);
  EXPECT_NE(line.find("\"victim\": 7"), std::string::npos);
  EXPECT_NE(line.find("\"victim_score\": 0.25"), std::string::npos);
  EXPECT_NE(line.find("\"client\": 3"), std::string::npos);
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(sink.recorded(), 1u);
}

TEST(TraceSinkTest, CsvHeaderAndRow) {
  std::ostringstream out;
  TraceSink sink(&out, 1.0, TraceFormat::kCsv, 1);
  ASSERT_TRUE(sink.ShouldSample(3, 1));
  sink.Record(SampleEvent());
  const std::string text = out.str();
  EXPECT_EQ(text.find("time,page,hit,warmup,wait_slots,disk,victim,"
                      "victim_score,client\n"),
            0u)
      << text;
  EXPECT_NE(text.find("123.5,42,0,0,17,2,7,0.25,3"), std::string::npos)
      << text;
}

TEST(TraceSinkTest, CacheHitRecordUsesSentinels) {
  std::ostringstream out;
  TraceSink sink(&out, 1.0, TraceFormat::kJsonl, 1);
  RequestEvent event;
  event.time = 5.0;
  event.page = 9;
  event.hit = true;
  ASSERT_TRUE(sink.ShouldSample(3, 1));
  sink.Record(event);
  const std::string line = out.str();
  EXPECT_NE(line.find("\"hit\": true"), std::string::npos);
  EXPECT_NE(line.find("\"disk\": -1"), std::string::npos);
  EXPECT_NE(line.find("\"victim\": -1"), std::string::npos);
}

TEST(TraceSinkTest, OpenWritesToFile) {
  const std::string path = ::testing::TempDir() + "/trace_test.jsonl";
  {
    Result<std::unique_ptr<TraceSink>> sink =
        TraceSink::Open(path, 1.0, TraceFormat::kJsonl, 3);
    ASSERT_TRUE(sink.ok());
    ASSERT_TRUE((*sink)->ShouldSample(3, 1));
    (*sink)->Record(SampleEvent());
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"page\": 42"), std::string::npos);
}

TEST(TraceSinkTest, OpenBadPathFails) {
  Result<std::unique_ptr<TraceSink>> sink = TraceSink::Open(
      "/nonexistent_dir_zzz/trace.jsonl", 1.0, TraceFormat::kJsonl, 3);
  EXPECT_FALSE(sink.ok());
}

TEST(TraceSinkTest, OutOfRangeSampleRatesClamp) {
  std::ostringstream out;
  TraceSink high(&out, 2.0, TraceFormat::kJsonl, 1);
  EXPECT_DOUBLE_EQ(high.sample_rate(), 1.0);
  TraceSink low(&out, -1.0, TraceFormat::kJsonl, 1);
  EXPECT_DOUBLE_EQ(low.sample_rate(), 0.0);
}

}  // namespace
}  // namespace bcast::obs
