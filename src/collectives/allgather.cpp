#include "collectives/allgather.hpp"

#include <algorithm>

#include "collectives/orderfix.hpp"
#include "collectives/patterns.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

using simmpi::Engine;
using simmpi::ExecMode;

namespace detail {

/// Recursive doubling (p a power of two): stage `dist` pairs j with
/// j XOR dist, each sending its accumulated dist-block range; the range
/// starts at j & ~(dist-1) because blocks are kept new-rank-contiguous.
void rd_stages(Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "recursive doubling requires power-of-two size");
  patterns::exchange(eng, p, [&eng](Rank j, Rank peer, int dist) {
    const int base = j & ~(dist - 1);
    eng.copy(j, base, peer, base, dist);
  });
}

/// Ring with in-place order correction: the block that originated at new
/// rank o always lives at slot oldrank[o], so the output is in original-rank
/// order with no extra mechanism.
void ring_stages(Engine& eng, const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  patterns::ring(eng, p, [&eng, &oldrank, p](Rank j, Rank next, int s) {
    const int slot = oldrank[(j - s + p) % p];
    eng.copy(j, slot, next, slot, 1);
  });
}

}  // namespace detail

namespace {

/// Bruck: local slot k of rank j holds the block of origin (j+k) mod p; the
/// final rotation that Bruck needs anyway also lands every block at its
/// original-rank index.
void bruck_stages(Engine& eng, const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  for (int dist = 1; dist < p; dist <<= 1) {
    const int cnt = std::min(dist, p - dist);
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j)
      eng.copy((j + dist) % p, 0, j, dist, cnt);
    eng.end_stage();
  }
  // Final rotation/reorder: block k of rank j (origin (j+k) mod p) moves to
  // slot oldrank[(j+k) mod p].  This is a per-rank permutation, so it cannot
  // use local_permute_all; in Timed mode each rank is charged one local copy
  // of exactly the blocks that move.
  eng.begin_stage();
  if (eng.mode() == ExecMode::Data) {
    for (Rank j = 0; j < p; ++j) {
      for (int k = 0; k < p; ++k) {
        const int dst = oldrank[(j + k) % p];
        if (dst != k) eng.copy(j, k, j, dst, 1);
      }
    }
  } else {
    for (Rank j = 0; j < p; ++j) {
      int moved = 0;
      for (int k = 0; k < p; ++k)
        if (oldrank[(j + k) % p] != k) ++moved;
      if (moved > 0) eng.copy(j, 0, j, 0, moved);
    }
  }
  eng.end_stage();
}

}  // namespace

Usec run_allgather(simmpi::Engine& eng, const AllgatherOptions& opts,
                   const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  require_oldrank(eng, oldrank, p, "run_allgather");
  const Usec before = eng.total();

  switch (opts.algo) {
    case AllgatherAlgo::RecursiveDoubling: {
      seed_allgather_inputs(eng, oldrank);
      if (opts.fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
      if (p > 1) {
        Engine::PhaseScope ps(eng, "recursive-doubling");
        detail::rd_stages(eng);
      }
      if (opts.fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
      break;
    }
    case AllgatherAlgo::Ring: {
      // Own block goes straight to its original-rank slot.
      for (Rank j = 0; j < p; ++j)
        eng.set_block(j, oldrank[j], static_cast<std::uint32_t>(oldrank[j]));
      if (p > 1) {
        Engine::PhaseScope ps(eng, "ring");
        detail::ring_stages(eng, oldrank);
      }
      break;
    }
    case AllgatherAlgo::Bruck: {
      for (Rank j = 0; j < p; ++j)
        eng.set_block(j, 0, static_cast<std::uint32_t>(oldrank[j]));
      if (p > 1) {
        Engine::PhaseScope ps(eng, "bruck");
        bruck_stages(eng, oldrank);
      } else {
        eng.set_block(0, oldrank[0], static_cast<std::uint32_t>(oldrank[0]));
      }
      break;
    }
  }
  return eng.total() - before;
}

Usec run_allgather(simmpi::Engine& eng, const AllgatherOptions& opts) {
  return run_allgather(eng, opts, identity_permutation(eng.comm().size()));
}

}  // namespace tarr::collectives
