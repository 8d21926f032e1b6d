#include "collectives/gather_bcast.hpp"

#include "collectives/allgather.hpp"
#include "collectives/orderfix.hpp"
#include "collectives/patterns.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

namespace {

using simmpi::Engine;

/// Binomial scatter from new rank 0 (the gather tree reversed): each parent
/// hands a child the child's subtree's blocks, a new-rank-contiguous range
/// starting at the child's own slot.
void binomial_scatter(Engine& eng) {
  patterns::tree_down(eng, eng.comm().size(), 1,
                      [&eng](Rank parent, Rank child, int size) {
                        eng.copy(parent, child, child, child, size);
                      });
}

}  // namespace

Usec run_gather(simmpi::Engine& eng, TreeAlgo algo, OrderFix fix,
                const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  require_oldrank(eng, oldrank, p, "run_gather");
  const Usec before = eng.total();

  if (algo == TreeAlgo::Linear) {
    // Every rank sends its block straight to its original-rank slot at the
    // root; arrivals serialize at the root, one stage each.  No §V-B
    // mechanism is needed — the root addresses by the mapping array.
    for (Rank j = 0; j < p; ++j)
      eng.set_block(j, oldrank[j], static_cast<std::uint32_t>(oldrank[j]));
    patterns::linear(eng, p, 1, [&eng, &oldrank](Rank root, Rank t) {
      eng.copy(t, oldrank[t], root, oldrank[t], 1);
    });
    return eng.total() - before;
  }

  // Binomial: every subtree's range stays new-rank-contiguous on its way
  // into the parent.
  seed_allgather_inputs(eng, oldrank);
  if (fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
  patterns::tree_up(eng, p, 1, [&eng](Rank child, Rank parent, int size) {
    eng.copy(child, child, parent, child, size);
  });
  if (fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
  return eng.total() - before;
}

Usec run_bcast(simmpi::Engine& eng, TreeAlgo algo) {
  const int p = eng.comm().size();
  const Usec before = eng.total();
  eng.set_block(0, 0, kBcastMessageTag);
  if (algo == TreeAlgo::Linear) {
    // Root pushes the message to each rank in turn (sender serialization).
    patterns::linear(eng, p, 1, [&eng](Rank root, Rank t) {
      eng.copy(root, 0, t, 0, 1);
    });
  } else {
    // Binomial halving tree: the message size is constant across stages.
    patterns::tree_down(eng, p, 1, [&eng](Rank parent, Rank child, int) {
      eng.copy(parent, 0, child, 0, 1);
    });
  }
  return eng.total() - before;
}

Usec run_bcast_scatter_allgather(simmpi::Engine& eng, AllgatherAlgo ag) {
  const int p = eng.comm().size();
  TARR_REQUIRE(eng.buf_blocks() >= p,
               "run_bcast_scatter_allgather: buffer too small");
  const Usec before = eng.total();
  for (int b = 0; b < p; ++b) eng.set_block(0, b, static_cast<std::uint32_t>(b));
  if (p == 1) return eng.total() - before;

  binomial_scatter(eng);
  switch (ag) {
    case AllgatherAlgo::RecursiveDoubling:
      detail::rd_stages(eng);
      break;
    case AllgatherAlgo::Ring:
      detail::ring_stages(eng, identity_permutation(p));
      break;
    case AllgatherAlgo::Bruck:
      TARR_REQUIRE(false,
                   "run_bcast_scatter_allgather: Bruck phase not supported");
  }
  return eng.total() - before;
}

Usec run_scatter(simmpi::Engine& eng, TreeAlgo algo,
                 const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  require_oldrank(eng, oldrank, p, "run_scatter");
  const Usec before = eng.total();

  // Root's send buffer in original-rank order.
  for (int r = 0; r < p; ++r)
    eng.set_block(0, r, static_cast<std::uint32_t>(r));
  if (p == 1) return eng.total() - before;

  if (algo == TreeAlgo::Linear) {
    // Direct addressing: send original rank oldrank[j]'s block to new rank
    // j's slot j, one serialized departure per destination.
    patterns::linear(eng, p, 1, [&eng, &oldrank](Rank root, Rank j) {
      eng.copy(root, oldrank[j], j, j, 1);
    });
    if (oldrank[0] != 0) {
      eng.begin_stage();
      eng.copy(0, oldrank[0], 0, 0, 1);  // root's own block into place
      eng.end_stage();
    }
    return eng.total() - before;
  }

  // Binomial: the halving tree forwards new-rank-contiguous ranges, so the
  // root first permutes its buffer into new-rank order (slot k <- block
  // oldrank[k]).  Only the root's buffer is meaningful; the permute models
  // its local shuffle.
  eng.local_permute_all(invert_permutation(oldrank));
  binomial_scatter(eng);
  return eng.total() - before;
}

}  // namespace tarr::collectives
