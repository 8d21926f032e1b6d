#include "collectives/hierarchical.hpp"

#include <algorithm>

#include "collectives/orderfix.hpp"
#include "collectives/patterns.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

namespace {

using simmpi::Engine;

/// Phase 1: gather the node's cpn blocks into the leader (local rank 0 of
/// each node block).  All nodes proceed concurrently, stage by stage.
void intra_gather(Engine& eng, int cpn, IntraAlgo algo) {
  const int nodes = eng.comm().size() / cpn;
  // A member's range starts at its own slot.
  const auto up = [&eng](Rank from, Rank to, int size) {
    eng.copy(from, from, to, from, size);
  };
  if (algo == IntraAlgo::Binomial) {
    patterns::tree_up(eng, cpn, nodes, up);
  } else {
    // Linear: arrivals serialize at each leader.
    patterns::linear(eng, cpn, nodes,
                     [up](Rank leader, Rank t) { up(t, leader, 1); });
  }
}

/// Phase 2: allgather of node chunks (cpn blocks each) among the leaders.
void leader_exchange(Engine& eng, int cpn, AllgatherAlgo algo) {
  const int nodes = eng.comm().size() / cpn;
  if (nodes == 1) return;

  if (algo == AllgatherAlgo::RecursiveDoubling) {
    TARR_REQUIRE(is_pow2(nodes),
                 "hierarchical RD leader phase needs 2^k nodes");
    patterns::exchange(eng, nodes, [&eng, cpn](int b, int peer, int dist) {
      const int base = (b & ~(dist - 1)) * cpn;
      eng.copy(b * cpn, base, peer * cpn, base, dist * cpn);
    });
    return;
  }

  TARR_REQUIRE(algo == AllgatherAlgo::Ring,
               "hierarchical leader phase supports RD or ring");
  patterns::ring(eng, nodes, [&eng, cpn, nodes](int b, int next, int s) {
    const int chunk = (b - s + nodes) % nodes * cpn;
    eng.copy(b * cpn, chunk, next * cpn, chunk, cpn);
  });
}

/// Phase 3: broadcast the complete p-block output from every leader down
/// its node.
void intra_bcast(Engine& eng, int cpn, IntraAlgo algo) {
  const int p = eng.comm().size();
  const int nodes = p / cpn;
  const auto down = [&eng, p](Rank from, Rank to, int) {
    eng.copy(from, 0, to, 0, p);
  };
  if (algo == IntraAlgo::Binomial) {
    patterns::tree_down(eng, cpn, nodes, down);
  } else {
    // Linear: the leader pushes the full buffer to each local rank in turn.
    patterns::linear(eng, cpn, nodes,
                     [down](Rank leader, Rank t) { down(leader, t, 1); });
  }
}

}  // namespace

Usec run_hier_allgather(simmpi::Engine& eng, const HierAllgatherOptions& opts,
                        const std::vector<Rank>& oldrank) {
  const auto& comm = eng.comm();
  require_oldrank(eng, oldrank, comm.size(), "run_hier_allgather");
  TARR_REQUIRE(comm.node_contiguous(),
               "run_hier_allgather: communicator must be node-contiguous "
               "(hierarchical allgather is not supported for cyclic layouts)");
  const int cpn = comm.machine().cores_per_node();
  TARR_REQUIRE(is_pow2(cpn) || opts.intra == IntraAlgo::Linear,
               "hierarchical binomial phases need 2^k cores per node");
  const Usec before = eng.total();

  seed_allgather_inputs(eng, oldrank);
  if (opts.fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);

  {
    Engine::PhaseScope ps(eng, "intra-gather");
    intra_gather(eng, cpn, opts.intra);
  }
  {
    Engine::PhaseScope ps(eng, "leader-exchange");
    leader_exchange(eng, cpn, opts.leader_algo);
  }
  {
    Engine::PhaseScope ps(eng, "intra-bcast");
    intra_bcast(eng, cpn, opts.intra);
  }

  if (opts.fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
  return eng.total() - before;
}

Usec run_hier_allgather(simmpi::Engine& eng,
                        const HierAllgatherOptions& opts) {
  return run_hier_allgather(eng, opts,
                            identity_permutation(eng.comm().size()));
}

Usec run_hier_allgather_pipelined(simmpi::Engine& eng, IntraAlgo gather_algo,
                                  OrderFix fix,
                                  const std::vector<Rank>& oldrank) {
  const auto& comm = eng.comm();
  const int p = comm.size();
  require_oldrank(eng, oldrank, p, "run_hier_allgather_pipelined");
  TARR_REQUIRE(comm.node_contiguous(),
               "run_hier_allgather_pipelined: needs node-contiguous ranks");
  const int cpn = comm.machine().cores_per_node();
  TARR_REQUIRE(is_pow2(cpn),
               "run_hier_allgather_pipelined: needs 2^k cores per node");
  const int nodes = p / cpn;
  const Usec before = eng.total();

  seed_allgather_inputs(eng, oldrank);
  if (fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
  {
    Engine::PhaseScope ps(eng, "intra-gather");
    intra_gather(eng, cpn, gather_algo);
  }

  // Superstage t carries the ring transfer of step t (t < nodes-1) plus,
  // for every node and every broadcast depth k, the binomial sub-stage k of
  // the chunk that became available k-1 superstages ago.  Chunk origins:
  // the own chunk (origin = node index) is available at superstage 0; the
  // chunk received in ring step s becomes available at superstage s+1.
  const int depth = floor_log2(cpn);  // binomial bcast sub-stages (0 if cpn=1)
  const int ring_steps = nodes - 1;
  const int superstages = std::max(ring_steps, 1 + (depth - 1)) + depth;

  auto emit_bcast_substage = [&](int node, int origin, int k) {
    // Sub-stage k (1-based) of the halving-tree broadcast of the cpn-block
    // chunk at offset origin*cpn within node `node`.
    const int dist = cpn >> k;
    const Rank leader = node * cpn;
    for (int tl = 0; tl + dist < cpn; tl += 2 * dist)
      eng.copy(leader + tl, origin * cpn, leader + tl + dist, origin * cpn,
               cpn);
  };

  // Whether superstage t carries any transfer at all (trailing superstages
  // of the drain can be dead when the ring is longer than the broadcast
  // depth; a dead stage must not reach the engine — the schedule verifier
  // rejects stages with zero transfers).
  auto superstage_live = [&](int t) {
    if (t < ring_steps) return true;
    if (cpn > 1) {
      for (int k = 1; k <= depth; ++k) {
        const int avail = t - k + 1;
        if (avail == 0 || (avail >= 1 && avail - 1 < ring_steps)) return true;
      }
    }
    return false;
  };

  {
    Engine::PhaseScope ps(eng, "pipelined-ring-bcast");
    for (int t = 0; t < superstages; ++t) {
      if (!superstage_live(t)) continue;
      eng.begin_stage();
      if (t < ring_steps) {
        for (int b = 0; b < nodes; ++b) {
          const int origin = (b - t + nodes) % nodes;
          eng.copy(b * cpn, origin * cpn, ((b + 1) % nodes) * cpn,
                   origin * cpn, cpn);
        }
      }
      if (cpn > 1) {
        for (int b = 0; b < nodes; ++b) {
          for (int k = 1; k <= depth; ++k) {
            const int avail = t - k + 1;  // availability superstage of chunk
            if (avail == 0) {
              emit_bcast_substage(b, b, k);
            } else if (avail >= 1 && avail - 1 < ring_steps) {
              const int s = avail - 1;  // ring step that delivered it
              const int origin = (b - 1 - s + nodes) % nodes;
              emit_bcast_substage(b, origin, k);
            }
          }
        }
      }
      eng.end_stage();
    }
  }

  if (fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
  return eng.total() - before;
}

}  // namespace tarr::collectives
