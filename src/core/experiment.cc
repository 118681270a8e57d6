#include "core/experiment.h"

#include <cstdlib>

#include "common/csv.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/table.h"

namespace bcast {

namespace {

// Mean response over `replications` consecutive seeds of `params`.
Result<double> ReplicatedMean(const SimParams& params,
                              uint64_t replications) {
  BCAST_CHECK_GE(replications, 1u);
  double sum = 0.0;
  for (uint64_t i = 0; i < replications; ++i) {
    SimParams run = params;
    run.seed = params.seed + i;
    Result<SimResult> result = RunSimulation(run);
    if (!result.ok()) return result.status();
    sum += result->metrics.mean_response_time();
  }
  return sum / static_cast<double>(replications);
}

bool IsWhole(double x) { return x == static_cast<uint64_t>(x); }

// Decimals for the non-integral entries of an x column: the fewest, at
// least \p precision, that print every such x so it reads back exactly,
// so neighbouring xs such as 0.05 and 0.1 keep distinct labels.
int XDecimals(const std::vector<double>& xs, int precision) {
  constexpr int kMaxDecimals = 6;
  int decimals = precision;
  for (double x : xs) {
    if (IsWhole(x)) continue;
    while (decimals < kMaxDecimals &&
           std::strtod(FormatDouble(x, decimals).c_str(), nullptr) != x) {
      ++decimals;
    }
  }
  return decimals;
}

}  // namespace

Result<std::vector<double>> SweepDelta(const SimParams& base,
                                       const std::vector<uint64_t>& deltas,
                                       uint64_t replications) {
  std::vector<double> out;
  out.reserve(deltas.size());
  for (uint64_t delta : deltas) {
    SimParams params = base;
    params.delta = delta;
    params.rel_freqs.clear();  // delta drives the frequencies
    Result<double> mean = ReplicatedMean(params, replications);
    if (!mean.ok()) return mean.status();
    out.push_back(*mean);
  }
  return out;
}

Result<std::vector<double>> SweepNoise(const SimParams& base,
                                       const std::vector<double>& noises,
                                       uint64_t replications) {
  std::vector<double> out;
  out.reserve(noises.size());
  for (double noise : noises) {
    SimParams params = base;
    params.noise_percent = noise;
    Result<double> mean = ReplicatedMean(params, replications);
    if (!mean.ok()) return mean.status();
    out.push_back(*mean);
  }
  return out;
}

void PrintXYTable(std::ostream& out, const std::string& title,
                  const std::string& x_name, const std::vector<double>& xs,
                  const std::vector<Series>& series, int precision) {
  out << title << "\n";
  const int x_decimals = XDecimals(xs, precision);
  std::vector<std::string> headers{x_name};
  for (const Series& s : series) {
    BCAST_CHECK_EQ(s.y.size(), xs.size())
        << "series '" << s.label << "' length mismatch";
    headers.push_back(s.label);
  }
  AsciiTable table(std::move(headers));
  for (size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row;
    row.push_back(FormatDouble(xs[i], IsWhole(xs[i]) ? 0 : x_decimals));
    for (const Series& s : series) {
      row.push_back(FormatDouble(s.y[i], precision));
    }
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

void PrintXYCsv(std::ostream& out, const std::string& x_name,
                const std::vector<double>& xs,
                const std::vector<Series>& series, int precision) {
  CsvWriter csv(&out);
  std::vector<std::string> header{x_name};
  for (const Series& s : series) header.push_back(s.label);
  csv.WriteHeader(header);
  for (size_t i = 0; i < xs.size(); ++i) {
    std::vector<std::string> row{FormatDouble(xs[i], precision)};
    for (const Series& s : series) {
      row.push_back(FormatDouble(s.y[i], precision));
    }
    csv.WriteRow(row);
  }
}

void PrintLocationTable(std::ostream& out, const std::string& title,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& fractions) {
  BCAST_CHECK_EQ(row_labels.size(), fractions.size());
  BCAST_CHECK(!fractions.empty());
  const size_t num_disks = fractions[0].size() - 1;

  out << title << "\n";
  std::vector<std::string> headers{"Policy", "Cache%"};
  for (size_t d = 0; d < num_disks; ++d) {
    headers.push_back("Disk" + std::to_string(d + 1) + "%");
  }
  AsciiTable table(std::move(headers));
  for (size_t r = 0; r < fractions.size(); ++r) {
    BCAST_CHECK_EQ(fractions[r].size(), num_disks + 1);
    std::vector<std::string> row{row_labels[r]};
    for (double f : fractions[r]) {
      row.push_back(FormatDouble(100.0 * f, 1));
    }
    table.AddRow(std::move(row));
  }
  table.Print(out);
}

}  // namespace bcast
