/// \file experiment.h
/// \brief Sweep and reporting helpers shared by the bench binaries.
///
/// Every reproduced figure is an x-axis sweep (Delta or Noise) with one
/// series per configuration/policy. These helpers run the sweeps and print
/// the results both as an aligned table (for humans and
/// bench_output.txt) and as CSV (for plotting).

#ifndef BCAST_CORE_EXPERIMENT_H_
#define BCAST_CORE_EXPERIMENT_H_

#include <ostream>
#include <string>
#include <vector>

#include "core/params.h"
#include "core/simulator.h"

namespace bcast {

/// \brief One labelled series of y-values over a shared x-axis.
struct Series {
  std::string label;
  std::vector<double> y;
};

/// \brief Runs \p base per delta in \p deltas; returns the mean response
/// time (broadcast units) for each, averaged over \p replications
/// consecutive seeds (the noise mapping is redrawn per seed, which is the
/// dominant run-to-run variance).
Result<std::vector<double>> SweepDelta(const SimParams& base,
                                       const std::vector<uint64_t>& deltas,
                                       uint64_t replications = 1);

/// \brief Runs \p base per noise level (percent) in \p noises, averaged
/// over \p replications consecutive seeds.
Result<std::vector<double>> SweepNoise(const SimParams& base,
                                       const std::vector<double>& noises,
                                       uint64_t replications = 1);

/// \brief Prints "title", then an aligned table with column \p x_name and
/// one column per series. Integral xs print without decimals; the other
/// xs share the fewest decimals (at least \p precision) that keep every
/// x exact, so 0.05 and 0.1 print as "0.05" and "0.10".
void PrintXYTable(std::ostream& out, const std::string& title,
                  const std::string& x_name, const std::vector<double>& xs,
                  const std::vector<Series>& series, int precision = 1);

/// \brief Prints the same data as CSV (header row first).
void PrintXYCsv(std::ostream& out, const std::string& x_name,
                const std::vector<double>& xs,
                const std::vector<Series>& series, int precision = 4);

/// \brief Prints an access-location breakdown (Figures 11/14): one row per
/// policy, columns Cache / Disk1..DiskN as percentages.
void PrintLocationTable(std::ostream& out, const std::string& title,
                        const std::vector<std::string>& row_labels,
                        const std::vector<std::vector<double>>& fractions);

}  // namespace bcast

#endif  // BCAST_CORE_EXPERIMENT_H_
