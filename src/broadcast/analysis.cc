#include "broadcast/analysis.h"

#include "common/logging.h"

namespace bcast {

double ExpectedDelay(const BroadcastProgram& program, PageId p) {
  const std::vector<uint64_t> gaps = program.InterArrivalGaps(p);
  const double period = static_cast<double>(program.period());
  double sum_sq = 0.0;
  for (uint64_t g : gaps) {
    const double gd = static_cast<double>(g);
    sum_sq += gd * gd;
  }
  return sum_sq / (2.0 * period);
}

double ExpectedDelayForDistribution(const BroadcastProgram& program,
                                    const std::vector<double>& probs) {
  BCAST_CHECK_EQ(probs.size(), static_cast<size_t>(program.num_pages()));
  double delay = 0.0;
  for (PageId p = 0; p < program.num_pages(); ++p) {
    if (probs[p] > 0.0) delay += probs[p] * ExpectedDelay(program, p);
  }
  return delay;
}

double GapVariance(const BroadcastProgram& program, PageId p) {
  const std::vector<uint64_t> gaps = program.InterArrivalGaps(p);
  const double n = static_cast<double>(gaps.size());
  double mean = 0.0;
  for (uint64_t g : gaps) mean += static_cast<double>(g);
  mean /= n;
  double var = 0.0;
  for (uint64_t g : gaps) {
    const double d = static_cast<double>(g) - mean;
    var += d * d;
  }
  return var / n;
}

}  // namespace bcast
