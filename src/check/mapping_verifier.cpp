#include "check/mapping_verifier.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tarr::check {

void verify_mapping(const std::string& mapper, const std::vector<int>& input,
                    const std::vector<int>& result) {
  TARR_REQUIRE(result.size() == input.size(),
               "mapping invariant violated [" + mapper + "]: returned " +
                   std::to_string(result.size()) + " assignments for " +
                   std::to_string(input.size()) + " ranks");

  // The slot universe, sorted (it is sparse when a communicator covers a
  // subset of the machine's cores): a duplicate sits next to its twin, and
  // the smallest one is named.  Two allocations whatever the size.
  std::vector<int> universe = input;
  std::sort(universe.begin(), universe.end());
  for (std::size_t i = 1; i < universe.size(); ++i) {
    TARR_REQUIRE(universe[i] != universe[i - 1],
                 "mapping invariant violated [" + mapper + "]: input slot " +
                     std::to_string(universe[i]) +
                     " hosts more than one rank");
  }

  std::vector<char> seen(universe.size(), 0);
  for (std::size_t new_rank = 0; new_rank < result.size(); ++new_rank) {
    const int slot = result[new_rank];
    const auto it = std::lower_bound(universe.begin(), universe.end(), slot);
    TARR_REQUIRE(it != universe.end() && *it == slot,
                 "mapping invariant violated [" + mapper + "]: new rank " +
                     std::to_string(new_rank) + " assigned slot " +
                     std::to_string(slot) + " outside the slot universe");
    char& taken = seen[it - universe.begin()];
    TARR_REQUIRE(!taken,
                 "mapping invariant violated [" + mapper + "]: slot " +
                     std::to_string(slot) +
                     " assigned to more than one rank (not a bijection)");
    taken = 1;
  }
}

}  // namespace tarr::check
