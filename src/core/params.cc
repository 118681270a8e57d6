#include "core/params.h"

#include <numeric>

#include "common/string_util.h"
#include "core/multi_client.h"

namespace bcast {

uint64_t SimParams::ServerDbSize() const {
  return std::accumulate(disk_sizes.begin(), disk_sizes.end(), uint64_t{0});
}

// A single run is a population of one, so it validates as one: there is
// one rule set.
Status SimParams::Validate() const {
  return PopulationFromSimParams(*this, 1).Validate();
}

std::string SimParams::ToString() const {
  std::vector<std::string> sizes;
  sizes.reserve(disk_sizes.size());
  for (uint64_t s : disk_sizes) sizes.push_back(std::to_string(s));
  std::string summary = StrFormat(
      "disks<%s> delta=%llu policy=%s cache=%llu offset=%llu noise=%.0f%% "
      "theta=%.2f seed=%llu",
      Join(sizes, ",").c_str(), static_cast<unsigned long long>(delta),
      PolicyKindName(policy).c_str(),
      static_cast<unsigned long long>(cache_size),
      static_cast<unsigned long long>(offset), noise_percent, theta,
      static_cast<unsigned long long>(seed));
  // A non-default optimizer is part of the run's identity; the default
  // ("delta") leaves every historical config string untouched.
  if (optimizer != "delta") {
    summary += " optimizer=" + optimizer;
  }
  // Faults extend the identity string only when active, so every
  // pre-fault config string (and golden baseline) is untouched.
  if (fault.Active()) {
    summary += " " + fault.ToString();
  }
  // Same contract for pull: the identity string only grows when the
  // hybrid machinery is on, so pure-push goldens never shift.
  if (pull.Active()) {
    summary += " " + pull.ToString();
  }
  // And for adaptation: a static run's identity never mentions it.
  if (adapt.Active()) {
    summary += " " + adapt.ToString();
  }
  return summary;
}

}  // namespace bcast
