// The collective runners, whose stage loops are now the pattern loops of
// collectives/patterns.hpp, against copies of the loop nests they replaced:
// recursive doubling (flat, leaders, allreduce, Rabenseifner's allgather
// half), the ring (flat, leaders, both allreduce phases), the binomial
// trees (gather, bcast, both scatters, reduce, both intra-node phases) and
// the linear sweeps.  Each pair must record the same schedule and price
// the same total, bit for bit, in Timed mode with transient faults off and
// on and in Data mode, where the final buffers must match too: for every
// named schedule at p = 1-32 on four layouts, at the identity and under its
// heuristic's reordering, and for every hierarchical combination of leader
// algorithm, intra-node algorithm and order fix on 1-8 nodes of 1-8 cores.
// A run that throws must throw on both sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/neighbor.hpp"
#include "collectives/orderfix.hpp"
#include "collectives/reduce_barrier.hpp"
#include "collectives/schedules.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "mapping/heuristics.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"

namespace tarr::collectives {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using RankVec = std::vector<Rank>;
using Runner = std::function<void(Engine&, const RankVec&)>;

// ---------------------------------------------------------------------------
// The runners as they were, loop nest for loop nest
// ---------------------------------------------------------------------------

namespace before {

void rd_stages(Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "recursive doubling requires power-of-two size");
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const Rank peer = j ^ dist;
      const int base = j & ~(dist - 1);
      eng.copy(j, base, peer, base, dist);
    }
    eng.end_stage();
  }
}

void ring_stages(Engine& eng, const RankVec& oldrank) {
  const int p = eng.comm().size();
  const int last_stage = eng.compresses_repeats() ? 1 : p - 1;
  for (int s = 0; s < last_stage; ++s) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const Rank origin = (j - s + p) % p;
      const int slot = oldrank[origin];
      eng.copy(j, slot, (j + 1) % p, slot, 1);
    }
    eng.end_stage();
  }
  if (eng.compresses_repeats() && p > 2) eng.repeat_last_stage(p - 2);
}

void check_oldrank(const Engine& eng, const RankVec& oldrank, int blocks) {
  TARR_REQUIRE(static_cast<int>(oldrank.size()) == eng.comm().size(),
               "oldrank size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(oldrank),
               "oldrank is not a permutation");
  TARR_REQUIRE(eng.buf_blocks() >= blocks, "buffer too small");
}

/// RD and ring; Bruck's loops did not change.
void allgather(Engine& eng, AllgatherAlgo algo, OrderFix fix,
               const RankVec& oldrank) {
  const int p = eng.comm().size();
  check_oldrank(eng, oldrank, p);
  switch (algo) {
    case AllgatherAlgo::RecursiveDoubling: {
      seed_allgather_inputs(eng, oldrank);
      if (fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
      if (p > 1) {
        Engine::PhaseScope ps(eng, "recursive-doubling");
        rd_stages(eng);
      }
      if (fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
      break;
    }
    case AllgatherAlgo::Ring: {
      for (Rank j = 0; j < p; ++j)
        eng.set_block(j, oldrank[j], static_cast<std::uint32_t>(oldrank[j]));
      if (p > 1) {
        Engine::PhaseScope ps(eng, "ring");
        ring_stages(eng, oldrank);
      }
      break;
    }
    case AllgatherAlgo::Bruck:
      run_allgather(eng, {algo, fix}, oldrank);
      break;
  }
}

void binomial_gather_stages(Engine& eng) {
  const int p = eng.comm().size();
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist) {
      const int size = std::min(dist, p - (t + dist));
      eng.copy(t + dist, t + dist, t, t + dist, size);
    }
    eng.end_stage();
  }
}

void gather(Engine& eng, TreeAlgo algo, OrderFix fix, const RankVec& oldrank) {
  const int p = eng.comm().size();
  check_oldrank(eng, oldrank, p);
  if (algo == TreeAlgo::Linear) {
    for (Rank j = 0; j < p; ++j)
      eng.set_block(j, oldrank[j], static_cast<std::uint32_t>(oldrank[j]));
    for (Rank t = 1; t < p; ++t) {
      eng.begin_stage();
      eng.copy(t, oldrank[t], 0, oldrank[t], 1);
      eng.end_stage();
    }
    return;
  }
  seed_allgather_inputs(eng, oldrank);
  if (fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
  if (p > 1) binomial_gather_stages(eng);
  if (fix == OrderFix::EndShuffle) end_shuffle(eng, oldrank);
}

void bcast(Engine& eng, TreeAlgo algo) {
  const int p = eng.comm().size();
  eng.set_block(0, 0, kBcastMessageTag);
  if (algo == TreeAlgo::Linear) {
    for (Rank t = 1; t < p; ++t) {
      eng.begin_stage();
      eng.copy(0, 0, t, 0, 1);
      eng.end_stage();
    }
    return;
  }
  for (int dist = p >= 2 ? static_cast<int>(ceil_pow2(p) / 2) : 0; dist >= 1;
       dist /= 2) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist) eng.copy(t, 0, t + dist, 0, 1);
    eng.end_stage();
  }
}

void bcast_scatter_allgather(Engine& eng, AllgatherAlgo ag) {
  const int p = eng.comm().size();
  TARR_REQUIRE(eng.buf_blocks() >= p, "buffer too small");
  for (int b = 0; b < p; ++b) eng.set_block(0, b, static_cast<std::uint32_t>(b));
  if (p == 1) return;
  for (int dist = static_cast<int>(ceil_pow2(p) / 2); dist >= 1; dist /= 2) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist) {
      const int size = std::min(dist, p - (t + dist));
      eng.copy(t, t + dist, t + dist, t + dist, size);
    }
    eng.end_stage();
  }
  switch (ag) {
    case AllgatherAlgo::RecursiveDoubling:
      rd_stages(eng);
      break;
    case AllgatherAlgo::Ring:
      ring_stages(eng, identity_permutation(p));
      break;
    case AllgatherAlgo::Bruck:
      TARR_REQUIRE(false, "Bruck phase not supported");
  }
}

void scatter(Engine& eng, TreeAlgo algo, const RankVec& oldrank) {
  const int p = eng.comm().size();
  check_oldrank(eng, oldrank, p);
  for (int r = 0; r < p; ++r)
    eng.set_block(0, r, static_cast<std::uint32_t>(r));
  if (p == 1) return;
  if (algo == TreeAlgo::Linear) {
    for (Rank j = 1; j < p; ++j) {
      eng.begin_stage();
      eng.copy(0, oldrank[j], j, j, 1);
      eng.end_stage();
    }
    if (oldrank[0] != 0) {
      eng.begin_stage();
      eng.copy(0, oldrank[0], 0, 0, 1);
      eng.end_stage();
    }
    return;
  }
  const RankVec inverse = invert_permutation(oldrank);
  eng.local_permute_all(inverse);
  for (int dist = static_cast<int>(ceil_pow2(p) / 2); dist >= 1; dist /= 2) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist) {
      const int size = std::min(dist, p - (t + dist));
      eng.copy(t, t + dist, t + dist, t + dist, size);
    }
    eng.end_stage();
  }
}

void reduce_binomial(Engine& eng) {
  const int p = eng.comm().size();
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist)
      eng.combine(t + dist, 0, t, 0, 1);
    eng.end_stage();
  }
}

void allreduce_rd(Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "needs 2^k ranks");
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) eng.combine(j, 0, j ^ dist, 0, 1);
    eng.end_stage();
  }
}

void allreduce_rabenseifner(Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "needs 2^k ranks");
  TARR_REQUIRE(eng.buf_blocks() >= p, "buffer too small");
  if (p == 1) return;
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
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank j = 0; j < p; ++j) {
      const int b = j & ~(dist - 1);
      eng.copy(j, b, j ^ dist, b, dist);
    }
    eng.end_stage();
  }
}

void allreduce_ring(Engine& eng) {
  const int p = eng.comm().size();
  TARR_REQUIRE(eng.buf_blocks() >= p, "buffer too small");
  if (p == 1) return;
  const bool compress = eng.compresses_repeats();
  const int stages = compress ? 1 : p - 1;
  {
    Engine::PhaseScope ps(eng, "ring-reduce-scatter");
    for (int s = 0; s < stages; ++s) {
      eng.begin_stage();
      for (Rank j = 0; j < p; ++j) {
        const int chunk = (j - s + p) % p;
        eng.combine(j, chunk, (j + 1) % p, chunk, 1);
      }
      eng.end_stage();
    }
    if (compress && p > 2) eng.repeat_last_stage(p - 2);
  }
  {
    Engine::PhaseScope ps(eng, "ring-allgather");
    for (int s = 0; s < stages; ++s) {
      eng.begin_stage();
      for (Rank j = 0; j < p; ++j) {
        const int chunk = (j + 1 - s + p) % p;
        eng.copy(j, chunk, (j + 1) % p, chunk, 1);
      }
      eng.end_stage();
    }
    if (compress && p > 2) eng.repeat_last_stage(p - 2);
  }
}

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

void leader_exchange(Engine& eng, int cpn, AllgatherAlgo algo) {
  const int p = eng.comm().size();
  const int nodes = p / cpn;
  if (nodes == 1) return;
  if (algo == AllgatherAlgo::RecursiveDoubling) {
    TARR_REQUIRE(is_pow2(nodes), "RD leader phase needs 2^k nodes");
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
  TARR_REQUIRE(algo == AllgatherAlgo::Ring, "leader phase: RD or ring");
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
    for (int t = 1; t < cpn; ++t) {
      eng.begin_stage();
      for (int b = 0; b < nodes; ++b)
        eng.copy(b * cpn, 0, b * cpn + t, 0, p);
      eng.end_stage();
    }
  }
}

void hier_allgather(Engine& eng, const HierAllgatherOptions& opts,
                    const RankVec& oldrank) {
  const auto& comm = eng.comm();
  check_oldrank(eng, oldrank, comm.size());
  TARR_REQUIRE(comm.node_contiguous(), "needs node-contiguous ranks");
  const int cpn = comm.machine().cores_per_node();
  TARR_REQUIRE(is_pow2(cpn) || opts.intra == IntraAlgo::Linear,
               "binomial phases need 2^k cores per node");
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
}

void hier_allgather_pipelined(Engine& eng, IntraAlgo gather_algo, OrderFix fix,
                              const RankVec& oldrank) {
  const auto& comm = eng.comm();
  const int p = comm.size();
  check_oldrank(eng, oldrank, p);
  TARR_REQUIRE(comm.node_contiguous(), "needs node-contiguous ranks");
  const int cpn = comm.machine().cores_per_node();
  TARR_REQUIRE(is_pow2(cpn), "needs 2^k cores per node");
  const int nodes = p / cpn;
  seed_allgather_inputs(eng, oldrank);
  if (fix == OrderFix::InitComm) init_comm_exchange(eng, oldrank);
  {
    Engine::PhaseScope ps(eng, "intra-gather");
    intra_gather(eng, cpn, gather_algo);
  }
  const int depth = floor_log2(cpn);
  const int ring_steps = nodes - 1;
  const int superstages = std::max(ring_steps, 1 + (depth - 1)) + depth;
  auto emit_bcast_substage = [&](int node, int origin, int k) {
    const int dist = cpn >> k;
    const Rank leader = node * cpn;
    for (int tl = 0; tl + dist < cpn; tl += 2 * dist)
      eng.copy(leader + tl, origin * cpn, leader + tl + dist, origin * cpn,
               cpn);
  };
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
            const int avail = t - k + 1;
            if (avail == 0) {
              emit_bcast_substage(b, b, k);
            } else if (avail >= 1 && avail - 1 < ring_steps) {
              const int s = avail - 1;
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
}

}  // namespace before

/// The runner as it was, by schedule name.  Neighbor exchange, both
/// alltoalls and Bruck kept their loops, so they run the library's runner
/// on both sides.
const std::map<std::string, Runner>& runners_before() {
  const auto ag = [](AllgatherAlgo a, OrderFix f) -> Runner {
    return [=](Engine& e, const RankVec& o) { before::allgather(e, a, f, o); };
  };
  const auto hier = [](HierAllgatherOptions opts) -> Runner {
    return [=](Engine& e, const RankVec& o) {
      before::hier_allgather(e, opts, o);
    };
  };
  const auto pipelined = [](IntraAlgo a) -> Runner {
    return [=](Engine& e, const RankVec& o) {
      before::hier_allgather_pipelined(e, a, OrderFix::InitComm, o);
    };
  };
  const auto gather = [](TreeAlgo a, OrderFix f) -> Runner {
    return [=](Engine& e, const RankVec& o) { before::gather(e, a, f, o); };
  };
  const auto bcast = [](TreeAlgo a) -> Runner {
    return [=](Engine& e, const RankVec&) { before::bcast(e, a); };
  };
  const auto scatter_allgather = [](AllgatherAlgo a) -> Runner {
    return [=](Engine& e, const RankVec&) {
      before::bcast_scatter_allgather(e, a);
    };
  };
  const auto scatter = [](TreeAlgo a) -> Runner {
    return [=](Engine& e, const RankVec& o) { before::scatter(e, a, o); };
  };
  const auto flat = [](void (*run)(Engine&)) -> Runner {
    return [=](Engine& e, const RankVec&) { run(e); };
  };
  const auto unchanged = [](const char* name) -> Runner {
    return [=](Engine& e, const RankVec& o) { find_schedule(name).run(e, o); };
  };
  using enum AllgatherAlgo;
  static const std::map<std::string, Runner> kRunners = {
      {"allgather-rd", ag(RecursiveDoubling, OrderFix::InitComm)},
      {"allgather-rd-endshuffle", ag(RecursiveDoubling, OrderFix::EndShuffle)},
      {"allgather-ring", ag(Ring, OrderFix::None)},
      {"allgather-bruck", ag(Bruck, OrderFix::None)},
      {"allgather-neighbor", unchanged("allgather-neighbor")},
      {"hier-allgather",
       hier({RecursiveDoubling, IntraAlgo::Binomial, OrderFix::InitComm})},
      {"hier-allgather-ring",
       hier({Ring, IntraAlgo::Linear, OrderFix::EndShuffle})},
      {"hier-allgather-pipelined", pipelined(IntraAlgo::Binomial)},
      {"hier-allgather-pipelined-linear", pipelined(IntraAlgo::Linear)},
      {"gather-linear", gather(TreeAlgo::Linear, OrderFix::None)},
      {"gather-binomial", gather(TreeAlgo::Binomial, OrderFix::InitComm)},
      {"gather-binomial-endshuffle",
       gather(TreeAlgo::Binomial, OrderFix::EndShuffle)},
      {"bcast-linear", bcast(TreeAlgo::Linear)},
      {"bcast-binomial", bcast(TreeAlgo::Binomial)},
      {"bcast-scatter-allgather", scatter_allgather(RecursiveDoubling)},
      {"bcast-scatter-allgather-ring", scatter_allgather(Ring)},
      {"scatter-linear", scatter(TreeAlgo::Linear)},
      {"scatter-binomial", scatter(TreeAlgo::Binomial)},
      {"alltoall-rotation", unchanged("alltoall-rotation")},
      {"alltoall-pairwise", unchanged("alltoall-pairwise")},
      {"allreduce-rd", flat(before::allreduce_rd)},
      {"allreduce-rabenseifner", flat(before::allreduce_rabenseifner)},
      {"allreduce-ring", flat(before::allreduce_ring)},
      {"reduce-binomial", flat(before::reduce_binomial)},
  };
  return kRunners;
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

/// How a run is made: Timed, Timed with transient faults armed, or Data.
enum class Mode { Timed, TimedFaults, Data };
constexpr Mode kModes[] = {Mode::Timed, Mode::TimedFaults, Mode::Data};

const char* to_string(Mode m) {
  switch (m) {
    case Mode::Timed:
      return "timed";
    case Mode::TimedFaults:
      return "timed+faults";
    case Mode::Data:
      return "data";
  }
  return "?";
}

/// One run's observable result.
struct Run {
  bool threw = false;
  std::uint64_t total_bits = 0;
  trace::ScheduleRecord record;
  std::vector<std::uint32_t> tags;  ///< every buffer block, Data mode only
};

Run run(const Communicator& comm, Mode mode, int blocks, const Runner& body,
        const RankVec& oldrank) {
  Run out;
  trace::Tracer recorder;
  {
    obs::Install traced(&recorder);
    Engine eng(comm, simmpi::CostConfig{},
               mode == Mode::Data ? ExecMode::Data : ExecMode::Timed, 256,
               blocks);
    if (mode == Mode::TimedFaults) {
      simmpi::TransientFaultConfig faults;
      faults.drop_prob = 0.1;
      faults.corrupt_prob = 0.05;
      faults.seed = 31;
      eng.set_transient_faults(faults);
    }
    try {
      body(eng, oldrank);
    } catch (const Error&) {
      out.threw = true;
      return out;
    }
    out.total_bits = std::bit_cast<std::uint64_t>(eng.total());
    if (mode == Mode::Data)
      for (Rank r = 0; r < comm.size(); ++r)
        for (int b = 0; b < blocks; ++b) out.tags.push_back(eng.block(r, b));
  }
  out.record = recorder.take();
  return out;
}

/// Runs both sides and counts the pairs that agree; the first few
/// disagreements are reported by label.
class Compare {
 public:
  void operator()(const Communicator& comm, Mode mode, int blocks,
                  const Runner& old_run, const Runner& new_run,
                  const RankVec& oldrank, const std::string& label) {
    const Run a = run(comm, mode, blocks, old_run, oldrank);
    const Run b = run(comm, mode, blocks, new_run, oldrank);
    ++runs_;
    if (!a.threw) ++completed_;
    const bool same = a.threw == b.threw && a.total_bits == b.total_bits &&
                      a.record == b.record && a.tags == b.tags;
    if (!same && ++mismatches_ <= 5)
      ADD_FAILURE() << label << " " << to_string(mode)
                    << (a.threw != b.threw ? ": only one side threw"
                                           : ": runs differ");
  }
  int runs() const { return runs_; }
  int completed() const { return completed_; }
  int mismatches() const { return mismatches_; }

 private:
  int runs_ = 0;
  int completed_ = 0;
  int mismatches_ = 0;
};

TEST(StageLoopOracle, EveryScheduleHasItsFormerRunner) {
  for (const Schedule& s : schedules())
    EXPECT_EQ(runners_before().count(s.name), 1u) << s.name;
  EXPECT_EQ(runners_before().size(), schedules().size());
}

/// Every flat schedule at p = 1..32 on a four-node GPC machine, on each of
/// the four layouts, at the identity and under its pattern's heuristic.
TEST(StageLoopOracle, EveryFlatScheduleRunsAsBefore) {
  const topology::Machine m = topology::Machine::gpc(4);
  core::ReorderFramework fw(m);
  Compare compare;
  for (int p = 1; p <= m.total_cores(); ++p) {
    for (const auto& spec : simmpi::all_layouts()) {
      const Communicator comm(m, simmpi::make_layout(m, p, spec));
      std::map<mapping::Pattern, core::ReorderedComm> reordered;
      for (const Schedule& s : schedules()) {
        if (s.hierarchical) continue;
        if (!reordered.contains(s.pattern)) {
          try {
            reordered.emplace(s.pattern, fw.reorder(comm, s.pattern));
          } catch (const Error&) {  // RDMH maps powers of two only
            reordered.emplace(s.pattern, core::ReorderedComm{comm, {}, 0.0});
          }
        }
        const core::ReorderedComm& rc = reordered.at(s.pattern);
        const std::string at = std::string(s.name) + " p=" +
                               std::to_string(p) + " " +
                               simmpi::to_string(spec);
        for (const Mode mode : kModes) {
          compare(comm, mode, s.buf_blocks(p), runners_before().at(s.name),
                  s.run, identity_permutation(p), at + " identity");
          if (!rc.oldrank.empty())
            compare(rc.comm, mode, s.buf_blocks(p),
                    runners_before().at(s.name), s.run, rc.oldrank,
                    at + " heuristic");
        }
      }
    }
  }
  EXPECT_EQ(compare.mismatches(), 0);
  // Most runs complete; the rest (RD on non-powers of two, neighbor
  // exchange on odd p) throw on both sides.
  EXPECT_GT(compare.completed(), 3 * compare.runs() / 4);
}

/// Every hierarchical combination on 1-8 nodes of 1-8 cores, at the
/// identity and under a node-block heuristic reordering.
TEST(StageLoopOracle, EveryHierarchicalCombinationRunsAsBefore) {
  struct Combo {
    std::string name;
    Runner before;
    Runner after;
  };
  std::vector<Combo> combos;
  for (const AllgatherAlgo leader :
       {AllgatherAlgo::RecursiveDoubling, AllgatherAlgo::Ring,
        AllgatherAlgo::Bruck})
    for (const IntraAlgo intra : {IntraAlgo::Linear, IntraAlgo::Binomial})
      for (const OrderFix fix :
           {OrderFix::None, OrderFix::InitComm, OrderFix::EndShuffle}) {
        const HierAllgatherOptions opts{leader, intra, fix};
        combos.push_back(
            {std::string("hier ") + to_string(leader) + "/" +
                 to_string(intra) + "/" + to_string(fix),
             [=](Engine& e, const RankVec& o) {
               before::hier_allgather(e, opts, o);
             },
             [=](Engine& e, const RankVec& o) {
               run_hier_allgather(e, opts, o);
             }});
      }
  for (const IntraAlgo intra : {IntraAlgo::Linear, IntraAlgo::Binomial})
    for (const OrderFix fix :
         {OrderFix::None, OrderFix::InitComm, OrderFix::EndShuffle})
      combos.push_back(
          {std::string("pipelined ") + to_string(intra) + "/" +
               to_string(fix),
           [=](Engine& e, const RankVec& o) {
             before::hier_allgather_pipelined(e, intra, fix, o);
           },
           [=](Engine& e, const RankVec& o) {
             run_hier_allgather_pipelined(e, intra, fix, o);
           }});

  const auto bbmh = mapping::make_heuristic(mapping::Pattern::BinomialBcast);
  const auto rmh = mapping::make_heuristic(mapping::Pattern::Ring);
  Compare compare;
  for (const topology::NodeShape shape :
       {topology::NodeShape{1, 1}, topology::NodeShape{1, 2},
        topology::NodeShape{1, 3}, topology::NodeShape{2, 2},
        topology::NodeShape{2, 3}, topology::NodeShape{2, 4}}) {
    for (const int nodes : {1, 2, 3, 4, 5, 8}) {
      const topology::Machine m = topology::Machine::gpc(nodes, shape);
      const int p = m.total_cores();
      const Communicator comm(m, simmpi::make_layout(m, p, {}));
      core::ReorderFramework fw(m);
      const core::ReorderedComm rc = fw.reorder_with(
          comm, mapping::HierarchicalMapper(*rmh, bbmh.get()));
      const std::string at = " nodes=" + std::to_string(nodes) +
                             " cores=" + std::to_string(shape.cores_per_node());
      for (const Combo& c : combos)
        for (const Mode mode : kModes) {
          compare(comm, mode, p, c.before, c.after, identity_permutation(p),
                  c.name + at + " identity");
          compare(rc.comm, mode, p, c.before, c.after, rc.oldrank,
                  c.name + at + " heuristic");
        }
    }
  }
  EXPECT_EQ(compare.mismatches(), 0);
  EXPECT_GT(compare.completed(), compare.runs() / 3);
}

}  // namespace
}  // namespace tarr::collectives
