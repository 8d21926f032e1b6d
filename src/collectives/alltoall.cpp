#include "collectives/alltoall.hpp"

#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

namespace {

/// Seed send blocks: new rank j's slot k holds the block its process
/// (original rank oldrank[j]) addresses to the process acting as new rank
/// k (original rank oldrank[k]).
void seed_alltoall(simmpi::Engine& eng, const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  for (Rank j = 0; j < p; ++j)
    for (Rank k = 0; k < p; ++k)
      eng.set_block(j, k, alltoall_tag(oldrank[j], oldrank[k]));
}

}  // namespace

Usec run_alltoall(simmpi::Engine& eng, AlltoallAlgo algo,
                  const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "run_alltoall: oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "run_alltoall: oldrank is not a permutation");
  TARR_REQUIRE(eng.buf_blocks() >= 2 * p, "run_alltoall: buffer too small");
  TARR_REQUIRE(algo != AlltoallAlgo::PairwiseXor || is_pow2(p),
               "run_alltoall: pairwise-xor needs 2^k ranks");
  const Usec before = eng.total();

  seed_alltoall(eng, oldrank);

  // Own block: a local move into the receive region.
  eng.begin_stage();
  for (Rank j = 0; j < p; ++j) eng.copy(j, j, j, p + oldrank[j], 1);
  eng.end_stage();

  for (int s = 1; s < p; ++s) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const Rank dest =
          algo == AlltoallAlgo::PairwiseXor ? (j ^ s) : (j + s) % p;
      // The receive slot is indexed by the sender's ORIGINAL rank, so the
      // output is in original-rank order for any reordering.
      eng.copy(j, dest, dest, p + oldrank[j], 1);
    }
    eng.end_stage();
  }
  return eng.total() - before;
}

Usec run_alltoall(simmpi::Engine& eng, AlltoallAlgo algo) {
  return run_alltoall(eng, algo, identity_permutation(eng.comm().size()));
}

}  // namespace tarr::collectives
