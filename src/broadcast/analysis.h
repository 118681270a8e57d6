/// \file analysis.h
/// \brief Closed-form expected-delay analysis of broadcast programs.
///
/// For a page broadcast with inter-arrival gaps g_1..g_k (summing to the
/// period P), a request arriving uniformly at random waits, in expectation,
///
///     E[wait] = sum_i (g_i / P) * (g_i / 2) = sum_i g_i^2 / (2 P).
///
/// Fixing total bandwidth (sum g_i), this is minimized when all gaps are
/// equal — the Bus Stop Paradox (Section 2.1): variance in inter-arrival
/// times only ever hurts. These functions reproduce Table 1 and provide
/// the analytic baseline the simulator is validated against.

#ifndef BCAST_BROADCAST_ANALYSIS_H_
#define BCAST_BROADCAST_ANALYSIS_H_

#include <vector>

#include "broadcast/program.h"

namespace bcast {

/// \brief Expected wait (in broadcast units) until page \p p *starts*
/// transmitting, for a request at a uniformly random time.
double ExpectedDelay(const BroadcastProgram& program, PageId p);

/// \brief Probability-weighted expected delay over all pages:
/// `sum_p probs[p] * ExpectedDelay(p)`. \p probs must have one entry per
/// page (entries may be zero; they need not be normalized).
double ExpectedDelayForDistribution(const BroadcastProgram& program,
                                    const std::vector<double>& probs);

/// \brief Population variance of page \p p's inter-arrival gaps; zero iff
/// the page has fixed inter-arrival times.
double GapVariance(const BroadcastProgram& program, PageId p);

}  // namespace bcast

#endif  // BCAST_BROADCAST_ANALYSIS_H_
