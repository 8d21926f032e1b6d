#include "collectives/allgatherv.hpp"

#include <numeric>

#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

std::vector<int> allgatherv_displacements(const std::vector<int>& counts) {
  std::vector<int> displs(counts.size() + 1, 0);
  for (std::size_t r = 0; r < counts.size(); ++r) {
    TARR_REQUIRE(counts[r] >= 1, "allgatherv: counts must be >= 1");
    displs[r + 1] = displs[r] + counts[r];
  }
  return displs;
}

Usec run_allgatherv_ring(simmpi::Engine& eng, const std::vector<int>& counts,
                         const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  TARR_REQUIRE(static_cast<int>(counts.size()) == p,
               "run_allgatherv_ring: counts size mismatch");
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "run_allgatherv_ring: oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "run_allgatherv_ring: oldrank is not a permutation");
  TARR_REQUIRE(eng.block_bytes() == 1,
               "run_allgatherv_ring: engine block must be one byte");
  const std::vector<int> displs = allgatherv_displacements(counts);
  TARR_REQUIRE(eng.buf_blocks() >= displs[p],
               "run_allgatherv_ring: buffer too small");
  const Usec before = eng.total();

  // Seed: new rank j's contribution (original rank oldrank[j]) lands
  // directly at its original-rank displacement.
  for (Rank j = 0; j < p; ++j) {
    const Rank o = oldrank[j];
    for (int b = 0; b < counts[o]; ++b)
      eng.set_block(j, displs[o] + b, static_cast<std::uint32_t>(o));
  }
  if (p == 1) return 0.0;

  // Ring stages; stage sizes vary with the forwarded rank's count, so no
  // repeat compression applies (unlike the fixed-size ring).
  for (int s = 0; s < p - 1; ++s) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const Rank origin = oldrank[(j - s + p) % p];
      eng.copy(j, displs[origin], (j + 1) % p, displs[origin],
               counts[origin]);
    }
    eng.end_stage();
  }
  return eng.total() - before;
}

Usec run_allgatherv_ring(simmpi::Engine& eng,
                         const std::vector<int>& counts) {
  return run_allgatherv_ring(eng, counts,
                             identity_permutation(eng.comm().size()));
}

}  // namespace tarr::collectives
