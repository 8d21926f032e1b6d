#include "common/permutation.hpp"

#include <numeric>

#include "common/error.hpp"

namespace tarr {

bool is_permutation_of_iota(const std::vector<int>& v) {
  std::vector<char> seen(v.size(), 0);
  for (int x : v) {
    if (x < 0 || static_cast<std::size_t>(x) >= v.size()) return false;
    if (seen[x]) return false;
    seen[x] = 1;
  }
  return true;
}

std::vector<int> invert_permutation(const std::vector<int>& perm) {
  TARR_REQUIRE(is_permutation_of_iota(perm),
               "invert_permutation: input is not a permutation");
  std::vector<int> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i)
    inv[perm[i]] = static_cast<int>(i);
  return inv;
}

std::vector<int> identity_permutation(int n) {
  std::vector<int> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0);
  return v;
}

}  // namespace tarr
