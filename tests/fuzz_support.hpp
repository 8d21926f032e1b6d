#pragma once

// Seeded random permutations and the communicators they reorder, shared by
// the randomized tests (test_fuzz, test_contract_oracle).

#include <utility>
#include <vector>

#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "simmpi/communicator.hpp"

namespace tarr::fuzz {

/// A uniformly random permutation of {0, .., n-1} (Fisher-Yates).
inline std::vector<int> random_permutation(int n, Rng& rng) {
  std::vector<int> p = identity_permutation(n);
  for (int i = n - 1; i > 0; --i) std::swap(p[i], p[rng.next_below(i + 1)]);
  return p;
}

/// Reordered communicator from an arbitrary rank permutation (not from a
/// heuristic): new rank j sits on the core of old rank oldrank[j].
inline simmpi::Communicator arbitrary_reorder(
    const simmpi::Communicator& comm, const std::vector<int>& oldrank) {
  std::vector<CoreId> cores(comm.size());
  for (Rank j = 0; j < comm.size(); ++j) cores[j] = comm.core_of(oldrank[j]);
  return comm.reordered(cores);
}

}  // namespace tarr::fuzz
