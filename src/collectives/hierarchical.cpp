#include "collectives/hierarchical.hpp"

#include <algorithm>

#include "collectives/orderfix.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"

namespace tarr::collectives {

namespace {

using simmpi::Engine;

/// Phase 1: gather the node's cpn blocks into the leader (local rank 0 of
/// each node block).  All nodes proceed concurrently, stage by stage.
void intra_gather(Engine& eng, int cpn, IntraAlgo algo) {
  const int p = eng.comm().size();
  const int nodes = p / cpn;
  if (algo == IntraAlgo::Binomial) {
    for (int dist = 1; dist < cpn; dist <<= 1) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b) {
        const Rank leader = b * cpn;
        for (int t = 0; t + dist < cpn; t += 2 * dist) {
          const int size = std::min(dist, cpn - (t + dist));
          eng.copy(leader + t + dist, leader + t + dist, leader + t,
                   leader + t + dist, size);
        }
      }
      eng.end_stage();
    }
  } else {
    // Linear: arrivals serialize at each leader; nodes run concurrently.
    for (int t = 1; t < cpn; ++t) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b) {
        const Rank leader = b * cpn;
        eng.copy(leader + t, leader + t, leader, leader + t, 1);
      }
      eng.end_stage();
    }
  }
}

/// Phase 2: allgather of node chunks (cpn blocks each) among the leaders.
void leader_exchange(Engine& eng, int cpn, AllgatherAlgo algo) {
  const int p = eng.comm().size();
  const int nodes = p / cpn;
  if (nodes == 1) return;

  if (algo == AllgatherAlgo::RecursiveDoubling) {
    TARR_REQUIRE(is_pow2(nodes),
                 "hierarchical RD leader phase needs 2^k nodes");
    for (int dist = 1; dist < nodes; dist <<= 1) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b) {
        const int peer = b ^ dist;
        const int base = b & ~(dist - 1);
        eng.copy(b * cpn, base * cpn, peer * cpn, base * cpn, dist * cpn);
      }
      eng.end_stage();
    }
    return;
  }

  TARR_REQUIRE(algo == AllgatherAlgo::Ring,
               "hierarchical leader phase supports RD or ring");
  const int last_stage = eng.compresses_repeats() ? 1 : nodes - 1;
  for (int s = 0; s < last_stage; ++s) {
    eng.begin_stage();
    for (int b = 0; b < nodes; ++b) {
      const int origin = (b - s + nodes) % nodes;
      eng.copy(b * cpn, origin * cpn, ((b + 1) % nodes) * cpn, origin * cpn,
               cpn);
    }
    eng.end_stage();
  }
  if (eng.compresses_repeats() && nodes > 2)
    eng.repeat_last_stage(nodes - 2);
}

/// Phase 3: broadcast the complete p-block output from every leader down
/// its node.
void intra_bcast(Engine& eng, int cpn, IntraAlgo algo) {
  const int p = eng.comm().size();
  const int nodes = p / cpn;
  if (cpn == 1) return;

  if (algo == IntraAlgo::Binomial) {
    for (int dist = static_cast<int>(ceil_pow2(cpn) / 2); dist >= 1;
         dist /= 2) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b) {
        const Rank leader = b * cpn;
        for (int t = 0; t + dist < cpn; t += 2 * dist)
          eng.copy(leader + t, 0, leader + t + dist, 0, p);
      }
      eng.end_stage();
    }
  } else {
    // Linear: the leader pushes the full buffer to each local rank in turn.
    for (int t = 1; t < cpn; ++t) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b)
        eng.copy(b * cpn, 0, b * cpn + t, 0, p);
      eng.end_stage();
    }
  }
}

}  // namespace

Usec run_hier_allgather(simmpi::Engine& eng, const HierAllgatherOptions& opts,
                        const std::vector<Rank>& oldrank) {
  const auto& comm = eng.comm();
  const int p = comm.size();
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "run_hier_allgather: oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "run_hier_allgather: oldrank is not a permutation");
  TARR_REQUIRE(eng.buf_blocks() >= p, "run_hier_allgather: buffer too small");
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
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == p,
               "run_hier_allgather_pipelined: oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "run_hier_allgather_pipelined: oldrank not a permutation");
  TARR_REQUIRE(eng.buf_blocks() >= p,
               "run_hier_allgather_pipelined: buffer too small");
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
