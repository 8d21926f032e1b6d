#include "collectives/neighbor.hpp"

#include "collectives/orderfix.hpp"
#include "common/error.hpp"

namespace tarr::collectives {

namespace {

using simmpi::Engine;
using simmpi::ExecMode;

/// Partner of rank i at stage k: stage 0 pairs (0,1),(2,3),...; stage 1
/// pairs (1,2),(3,4),...,(p-1,0); alternating from there.
Rank partner_at(Rank i, int k, int p) {
  return (i + k) % 2 == 0 ? (i + 1) % p : (i - 1 + p) % p;
}

/// Send the aligned block pair {2g, 2g+1} from i to partner.  Blocks are
/// stored at their original-rank slots (in-place order preservation), so
/// Data mode emits one copy per block; Timed mode coalesces the pair into
/// a single transfer to avoid double-charging latency.
void send_group(Engine& eng, const std::vector<Rank>& oldrank, Rank i,
                Rank partner, int group) {
  const int p = eng.comm().size();
  if (eng.mode() == ExecMode::Data) {
    for (int b = 0; b < 2; ++b) {
      const Rank origin = (2 * group + b) % p;
      eng.copy(i, oldrank[origin], partner, oldrank[origin], 1);
    }
  } else {
    eng.copy(i, 0, partner, 0, 2);
  }
}

}  // namespace

Usec run_allgather_neighbor(simmpi::Engine& eng,
                            const std::vector<Rank>& oldrank) {
  const int p = eng.comm().size();
  require_oldrank(eng, oldrank, p, "run_allgather_neighbor");
  TARR_REQUIRE(p % 2 == 0 || p == 1,
               "run_allgather_neighbor: needs an even number of ranks");
  const Usec before = eng.total();

  for (Rank j = 0; j < p; ++j)
    eng.set_block(j, oldrank[j], static_cast<std::uint32_t>(oldrank[j]));
  if (p == 1) return 0.0;

  // Stage 0: exchange own (single) blocks within adjacent pairs; afterwards
  // every rank holds its aligned pair group i/2 completely.
  eng.begin_stage();
  for (Rank i = 0; i < p; ++i)
    eng.copy(i, oldrank[i], partner_at(i, 0, p), oldrank[i], 1);
  eng.end_stage();

  // last_group[i] = the aligned pair group rank i received most recently
  // (initially its own group — what it forwards in stage 1).
  std::vector<int> last_group(p);
  for (Rank i = 0; i < p; ++i) last_group[i] = i / 2;

  for (int k = 1; k < p / 2; ++k) {
    eng.begin_stage();
    std::vector<int> next_group(p);
    for (Rank i = 0; i < p; ++i) {
      const Rank partner = partner_at(i, k, p);
      send_group(eng, oldrank, i, partner, last_group[i]);
      next_group[i] = last_group[partner];
    }
    last_group = std::move(next_group);
    eng.end_stage();
  }
  return eng.total() - before;
}

}  // namespace tarr::collectives
