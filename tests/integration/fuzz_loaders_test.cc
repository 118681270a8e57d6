// Deterministic pseudo-fuzzing of the text-format loaders: whatever the
// bytes, LoadProgram must either return a *valid* object or a clean
// error — never crash, hang, or hand back a program that would stall a
// client.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "broadcast/generator.h"
#include "broadcast/serialize.h"
#include "check/invariants.h"
#include "common/rng.h"
#include "obs/report_reader.h"
#include "obs/run_report.h"

namespace bcast {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  const size_t len = rng->NextBounded(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    // Bias toward printable/structure-ish characters so some inputs get
    // past the header checks.
    const uint64_t pick = rng->NextBounded(10);
    if (pick < 5) {
      s += static_cast<char>('0' + rng->NextBounded(10));
    } else if (pick < 7) {
      s += ' ';
    } else if (pick < 8) {
      s += '\n';
    } else {
      s += static_cast<char>(rng->NextBounded(256));
    }
  }
  return s;
}

// Mutates a valid serialization: flip/insert/delete bytes.
std::string Mutate(std::string s, Rng* rng) {
  const int edits = 1 + static_cast<int>(rng->NextBounded(4));
  for (int e = 0; e < edits && !s.empty(); ++e) {
    const size_t pos = rng->NextBounded(s.size());
    switch (rng->NextBounded(3)) {
      case 0:
        s[pos] = static_cast<char>(rng->NextBounded(256));
        break;
      case 1:
        s.insert(pos, 1, static_cast<char>('0' + rng->NextBounded(10)));
        break;
      default:
        s.erase(pos, 1);
        break;
    }
  }
  return s;
}

void CheckProgramLoad(const std::string& text) {
  std::istringstream in(text);
  Result<BroadcastProgram> program = LoadProgram(&in);
  if (!program.ok()) return;  // clean rejection is fine
  // If accepted, the invariants must hold.
  ASSERT_GT(program->period(), 0u);
  ASSERT_GT(program->num_pages(), 0u);
  for (PageId p = 0; p < program->num_pages(); ++p) {
    ASSERT_GE(program->Frequency(p), 1u) << "accepted a stalling program";
  }
}

TEST(FuzzLoadersTest, ProgramLoaderSurvivesGarbage) {
  Rng rng(0xF00D);
  for (int i = 0; i < 3000; ++i) {
    CheckProgramLoad(RandomBytes(&rng, 300));
  }
}

TEST(FuzzLoadersTest, ProgramLoaderSurvivesMutatedValidFiles) {
  auto layout = MakeLayout({2, 3}, {2, 1});
  auto program = GenerateMultiDiskProgram(*layout);
  ASSERT_TRUE(program.ok());
  std::ostringstream out;
  ASSERT_TRUE(SaveProgram(*program, &out).ok());
  const std::string valid = out.str();

  Rng rng(0xBEEF);
  int still_valid = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string mutated = Mutate(valid, &rng);
    std::istringstream in(mutated);
    if (LoadProgram(&in).ok()) ++still_valid;
    CheckProgramLoad(mutated);
  }
  // Some mutations (e.g. inside slot ids) still parse — that's fine, but
  // the vast majority must be rejected.
  EXPECT_LT(still_valid, 1500);
}

// --- Run-report JSON reader ---------------------------------------------
// bcastcheck trusts ReadRunReport with checked-in baseline files and CI
// artifacts; the same never-crash contract applies.

obs::RunReport SampleReport() {
  obs::RunReport report;
  report.tool = "fuzz";
  report.mode = "single";
  report.config = "disks=<10,20>@freqs{2,1}";
  report.seed = 42;
  report.seeds = 1;
  report.period = 40;
  report.empty_slots = 0;
  report.requests = 1000;
  report.warmup_requests = 100;
  report.cache_hits = 400;
  report.response = {1000, 12.5, 0.5, 39.0, 10.0, 20.0, 35.0};
  report.tuning = {1000, 12.5, 0.5, 39.0, 10.0, 20.0, 35.0};
  report.served_per_disk = {450, 150};
  report.end_time = 12345.0;
  report.events_dispatched = 2345;
  report.slots_per_second = 1.0e6;
  report.events_per_second = 2.0e5;
  report.extra.emplace_back("stale_hits", 3.0);
  return report;
}

void CheckReportLoad(const std::string& text) {
  Result<obs::RunReport> report = obs::ReadRunReport(text);
  if (!report.ok()) {
    // Clean rejection: a real Status with a message, not a crash.
    ASSERT_FALSE(report.status().message().empty());
    return;
  }
  // Accepted bytes must decode into a report the rest of the pipeline can
  // use. Mutations can legally flip numbers in valid JSON (hits >
  // requests, say), so semantic invariants are not unconditional here —
  // but re-serializing must always work and stay finite.
  std::ostringstream out;
  report->WriteJson(out);
  ASSERT_FALSE(out.str().empty());
  // The invariant checker itself must also survive arbitrary decoded
  // values (it reports FAIL verdicts; it must not crash).
  check::CheckReportInvariants(*report);
}

TEST(FuzzLoadersTest, ReportReaderSurvivesGarbage) {
  Rng rng(0x9E14);
  for (int i = 0; i < 3000; ++i) {
    CheckReportLoad(RandomBytes(&rng, 400));
  }
}

TEST(FuzzLoadersTest, ReportReaderSurvivesMutatedValidReports) {
  std::ostringstream out;
  SampleReport().WriteJson(out);
  const std::string valid = out.str();

  Rng rng(0x7A57);
  int still_valid = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string mutated = Mutate(valid, &rng);
    if (obs::ReadRunReport(mutated).ok()) ++still_valid;
    CheckReportLoad(mutated);
  }
  // Most random edits break JSON syntax or a required key.
  EXPECT_LT(still_valid, 1500);
}

TEST(FuzzLoadersTest, ReportReaderRejectsEveryTruncation) {
  // A truncated report must never parse: JSON's closing braces make any
  // strict parser detect the cut. This sweeps every prefix.
  std::ostringstream out;
  SampleReport().WriteJson(out);
  const std::string valid = out.str();
  ASSERT_TRUE(obs::ReadRunReport(valid).ok());
  // Cutting only trailing whitespace still leaves a complete document, so
  // sweep prefixes of the document proper.
  const size_t end = valid.find_last_not_of(" \t\r\n") + 1;
  for (size_t len = 0; len < end; ++len) {
    Result<obs::RunReport> r = obs::ReadRunReport(valid.substr(0, len));
    ASSERT_FALSE(r.ok()) << "accepted truncation at byte " << len;
  }
}

TEST(FuzzLoadersTest, ReportReaderRoundTripsThroughWriter) {
  const obs::RunReport original = SampleReport();
  std::ostringstream out1;
  original.WriteJson(out1);
  Result<obs::RunReport> loaded = obs::ReadRunReport(out1.str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  // Write(Read(Write(r))) is byte-identical — the reader loses nothing.
  std::ostringstream out2;
  loaded->WriteJson(out2);
  EXPECT_EQ(out1.str(), out2.str());
}

TEST(FuzzLoadersTest, RoundTripSurvivesEveryGeneratorOutput) {
  // Property: Save(Load(Save(p))) is stable for arbitrary generated
  // programs (seeded grid).
  Rng rng(0xABCD);
  for (int i = 0; i < 50; ++i) {
    const uint64_t d1 = 1 + rng.NextBounded(20);
    const uint64_t d2 = 1 + rng.NextBounded(40);
    const uint64_t delta = rng.NextBounded(6);
    auto layout = MakeDeltaLayout({d1, d2}, delta);
    ASSERT_TRUE(layout.ok());
    auto program = GenerateMultiDiskProgram(*layout);
    ASSERT_TRUE(program.ok());
    std::ostringstream out1;
    ASSERT_TRUE(SaveProgram(*program, &out1).ok());
    std::istringstream in(out1.str());
    auto loaded = LoadProgram(&in);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    std::ostringstream out2;
    ASSERT_TRUE(SaveProgram(*loaded, &out2).ok());
    EXPECT_EQ(out1.str(), out2.str());
  }
}

}  // namespace
}  // namespace bcast
