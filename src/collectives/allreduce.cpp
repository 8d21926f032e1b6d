#include "collectives/allreduce.hpp"

#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/patterns.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"

namespace tarr::collectives {

Usec run_allreduce_rd(simmpi::Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "run_allreduce_rd: needs 2^k ranks");
  const Usec before = eng.total();
  patterns::exchange(eng, p, [&eng](Rank j, Rank peer, int) {
    eng.combine(j, 0, peer, 0, 1);
  });
  return eng.total() - before;
}

Usec run_allreduce_rabenseifner(simmpi::Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "run_allreduce_rabenseifner: needs 2^k ranks");
  TARR_REQUIRE(eng.buf_blocks() >= p,
               "run_allreduce_rabenseifner: buffer too small");
  const Usec before = eng.total();
  if (p == 1) return 0.0;

  // Recursive-halving reduce-scatter: each rank tracks the base of the
  // segment it still owns; its peer contributes the peer's copy of that
  // (shrinking) segment.
  std::vector<int> base(p, 0);
  for (int dist = p / 2; dist >= 1; dist /= 2) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const Rank peer = j ^ dist;
      const int mine = base[j] + ((j & dist) ? dist : 0);
      eng.combine(peer, mine, j, mine, dist);
      base[j] = mine;
    }
    eng.end_stage();
  }
  // base[j] == j now; a plain recursive-doubling allgather distributes the
  // fully reduced blocks.
  detail::rd_stages(eng);
  return eng.total() - before;
}

Usec run_allreduce_ring(simmpi::Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(eng.buf_blocks() >= p, "run_allreduce_ring: buffer too small");
  const Usec before = eng.total();
  if (p == 1) return 0.0;

  // Reduce-scatter ring: at step s rank j sends chunk (j - s) mod p to its
  // successor, which combines it in place; after p-1 steps rank j owns the
  // fully reduced chunk (j + 1) mod p.
  {
    simmpi::Engine::PhaseScope ps(eng, "ring-reduce-scatter");
    patterns::ring(eng, p, [&eng, p](Rank j, Rank next, int s) {
      const int chunk = (j - s + p) % p;
      eng.combine(j, chunk, next, chunk, 1);
    });
  }
  // Allgather ring: rank j starts by forwarding its reduced chunk
  // (j + 1) mod p; at step s it forwards chunk (j + 1 - s) mod p.
  {
    simmpi::Engine::PhaseScope ps(eng, "ring-allgather");
    patterns::ring(eng, p, [&eng, p](Rank j, Rank next, int s) {
      const int chunk = (j + 1 - s + p) % p;
      eng.copy(j, chunk, next, chunk, 1);
    });
  }
  return eng.total() - before;
}

}  // namespace tarr::collectives
