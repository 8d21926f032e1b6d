#include "collectives/orderfix.hpp"

#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

void seed_allgather_inputs(simmpi::Engine& eng,
                           const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "seed_allgather_inputs: permutation size mismatch");
  TARR_REQUIRE(eng.buf_blocks() >= p,
               "seed_allgather_inputs: buffer smaller than communicator");
  for (Rank j = 0; j < p; ++j)
    eng.set_block(j, j, static_cast<std::uint32_t>(oldrank[j]));
}

void init_comm_exchange(simmpi::Engine& eng,
                        const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "init_comm_exchange: permutation size mismatch");
  const std::vector<Rank> holder = invert_permutation(oldrank);
  // holder[o] = new rank of the process whose original rank is o; after the
  // exchange, new rank j's slot j carries original rank j's input.
  bool any = false;
  for (Rank j = 0; j < p; ++j) any |= holder[j] != j;
  if (!any) return;

  simmpi::Engine::PhaseScope ps(eng, "init-comm-exchange");
  eng.begin_stage();
  for (Rank j = 0; j < p; ++j) {
    if (holder[j] != j) eng.copy(holder[j], holder[j], j, j, 1);
  }
  eng.end_stage();
}

void end_shuffle(simmpi::Engine& eng, const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "end_shuffle: permutation size mismatch");
  // The output slot j holds original rank oldrank[j]'s block; move it there.
  // Buffer slots beyond p (if any) stay put.
  std::vector<int> dst(eng.buf_blocks());
  for (int b = 0; b < eng.buf_blocks(); ++b)
    dst[b] = b < p ? oldrank[b] : b;
  eng.local_permute_all(dst);
}

}  // namespace tarr::collectives
