// The collective contracts as the one statement of every collective's final
// layout: collectives::check_output's accept and reject paths; a
// differential oracle against hand-written per-collective expectations; and
// seeded random runs checked three ways — check_output, analyze() over the
// same run's recording, and Timed against Data totals.

#include "collectives/contracts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analyze/analyzer.hpp"
#include "collectives/allgather.hpp"
#include "collectives/allgatherv.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/neighbor.hpp"
#include "collectives/reduce_barrier.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/rng.hpp"
#include "fault/degraded.hpp"
#include "fault/fault_mask.hpp"
#include "fault/shrink.hpp"
#include "fuzz_support.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "trace/record.hpp"

namespace tarr::collectives {
namespace {

using analyze::Contract;
using fuzz::arbitrary_reorder;
using fuzz::random_permutation;
using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using topology::Machine;
using RankVec = std::vector<Rank>;

/// A (rank, block) slot.
using Slot = std::pair<Rank, int>;

/// check_output's verdict: the slot its error names, or nullopt on accept.
std::optional<Slot> contract_verdict(const Engine& eng, const Contract& c) {
  try {
    check_output(eng, c);
  } catch (const Error& e) {
    const std::string msg = e.what();
    const std::string lead = " contract violated: rank ";
    const std::size_t at = msg.find(lead);
    if (at == std::string::npos) {
      ADD_FAILURE() << "unexpected check_output error: " << msg;
      return Slot{-1, -1};
    }
    const std::size_t rank_at = at + lead.size();
    const std::size_t block_at = msg.find(" block ", rank_at) + 7;
    return Slot{std::stoi(msg.substr(rank_at)),
                std::stoi(msg.substr(block_at))};
  }
  return std::nullopt;
}

/// The first error message `fn` throws, or "" when it returns.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

Communicator flat_comm(const Machine& m, int p) {
  return Communicator(m, simmpi::make_layout(m, p, simmpi::LayoutSpec{}));
}

// ---------------------------------------------------------------------------
// check_output
// ---------------------------------------------------------------------------

TEST(CheckOutput, NamesTheFirstViolatingSlot) {
  const Machine m = Machine::gpc(1);
  const Communicator comm = flat_comm(m, 8);
  Engine eng(comm, CostConfig{}, ExecMode::Data, 64, 8);
  run_allgather(eng, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                                      OrderFix::None});
  const Contract c = contract_allgather(
      8, 8, AllgatherAlgo::RecursiveDoubling, identity_permutation(8));
  EXPECT_NO_THROW(check_output(eng, c));

  eng.set_block(6, 1, 0xdeadu);  // a miscompiled schedule, two slots wrong
  eng.set_block(3, 5, 0xdeadu);
  EXPECT_NE(error_of([&] { check_output(eng, c); })
                .find("allgather/recursive-doubling contract violated: rank 3 "
                      "block 5 carries tag 57005, expected 5"),
            std::string::npos);
}

TEST(CheckOutput, LeavesUnconstrainedSlotsUnchecked) {
  // Gather: only the root's buffer is output; the rest is scratch.
  const Machine m = Machine::gpc(1);
  const Communicator comm = flat_comm(m, 4);
  Engine eng(comm, CostConfig{}, ExecMode::Data, 64, 4);
  run_gather(eng, TreeAlgo::Binomial, OrderFix::None, identity_permutation(4));
  const Contract c =
      contract_gather(4, 4, TreeAlgo::Binomial, identity_permutation(4));
  eng.set_block(2, 1, 999u);
  EXPECT_NO_THROW(check_output(eng, c));
  eng.set_block(0, 1, 999u);
  EXPECT_NE(error_of([&] { check_output(eng, c); })
                .find("gather/binomial contract violated: rank 0 block 1"),
            std::string::npos);
}

TEST(CheckOutput, RejectsTimedModeEngines) {
  const Machine m = Machine::gpc(1);
  const Communicator comm = flat_comm(m, 4);
  const Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 4);
  EXPECT_NE(error_of([&] {
              check_output(eng, contract_bcast(4, 4, TreeAlgo::Linear));
            }).find("bcast/linear contract check requires a Data-mode engine"),
            std::string::npos);
}

TEST(CheckOutput, RejectsAContractOfAnotherShape) {
  const Machine m = Machine::gpc(1);
  const Communicator comm = flat_comm(m, 4);
  const Engine eng(comm, CostConfig{}, ExecMode::Data, 64, 4);
  for (const Contract& c :
       {contract_bcast(4, 8, TreeAlgo::Linear),
        contract_bcast(2, 4, TreeAlgo::Linear)}) {
    EXPECT_NE(error_of([&] { check_output(eng, c); })
                  .find("the engine has 4 ranks x 4 blocks"),
              std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// The schedules both randomized tests run
// ---------------------------------------------------------------------------

/// The five layouts the reference check below writes out by hand.
enum class Layout { Allgather, Gather, Bcast, Scatter, Alltoall };

enum class Sizes { Any, Pow2, Even };

bool accepts(Sizes sizes, int p) {
  switch (sizes) {
    case Sizes::Any:
      return true;
    case Sizes::Pow2:
      return is_pow2(p);
    case Sizes::Even:
      return p % 2 == 0 || p == 1;
  }
  return false;
}

/// The inputs one run of a schedule takes.
struct Draw {
  int p = 0;
  RankVec oldrank;
  std::vector<int> counts;  ///< allgatherv contributions, one per rank
};

/// One collective x algorithm.
struct Schedule {
  const char* name;
  Sizes sizes = Sizes::Any;
  /// Needs a node-contiguous communicator of whole nodes; `pow2_nodes`
  /// additionally needs 2^k of them (recursive-doubling leaders).
  bool hierarchical = false;
  bool pow2_nodes = false;
  /// Timed mode prices one ring stage and repeats it, so its total matches
  /// Data mode's only up to rounding.
  bool compressed = false;
  /// Timed mode coalesces each block pair into one transfer.
  bool coalesced = false;
  bool one_byte_blocks = false;  ///< allgatherv: the engine block is one byte
  bool runner_seeds = true;      ///< false for reductions: the test seeds
  /// The collective's hand-written reference layout, if it has one.
  std::optional<Layout> layout = std::nullopt;
  std::function<void(Engine&, const Draw&)> run;
  std::function<Contract(const Draw&)> contract;
};

/// The §V-B fix a schedule runs with: none unless the draw reorders.
OrderFix fix_for(const Draw& d, OrderFix f) {
  return d.oldrank == identity_permutation(d.p) ? OrderFix::None : f;
}

const std::vector<Schedule>& schedules() {
  const auto allgather = [](AllgatherAlgo a) {
    return [a](const Draw& d) {
      return contract_allgather(d.p, d.p, a, d.oldrank);
    };
  };
  const auto hier = [](bool pipelined) {
    return [pipelined](const Draw& d) {
      return contract_hier_allgather(d.p, d.p, d.oldrank, pipelined);
    };
  };
  static const std::vector<Schedule> kSchedules = {
      {.name = "allgather-rd-initcomm",
       .sizes = Sizes::Pow2,
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw& d) {
             run_allgather(e,
                           {AllgatherAlgo::RecursiveDoubling,
                            fix_for(d, OrderFix::InitComm)},
                           d.oldrank);
           },
       .contract = allgather(AllgatherAlgo::RecursiveDoubling)},
      {.name = "allgather-rd-endshuffle",
       .sizes = Sizes::Pow2,
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw& d) {
             run_allgather(e,
                           {AllgatherAlgo::RecursiveDoubling,
                            fix_for(d, OrderFix::EndShuffle)},
                           d.oldrank);
           },
       .contract = allgather(AllgatherAlgo::RecursiveDoubling)},
      {.name = "allgather-ring",
       .compressed = true,
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw& d) {
             run_allgather(e, {AllgatherAlgo::Ring, OrderFix::None},
                           d.oldrank);
           },
       .contract = allgather(AllgatherAlgo::Ring)},
      {.name = "allgather-bruck",
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw& d) {
             run_allgather(e, {AllgatherAlgo::Bruck, OrderFix::None},
                           d.oldrank);
           },
       .contract = allgather(AllgatherAlgo::Bruck)},
      {.name = "allgather-neighbor",
       .sizes = Sizes::Even,
       .coalesced = true,
       .layout = Layout::Allgather,
       .run = [](Engine& e,
                 const Draw& d) { run_allgather_neighbor(e, d.oldrank); },
       .contract = allgather(AllgatherAlgo::Ring)},
      {.name = "hier-allgather-rd",
       .hierarchical = true,
       .pow2_nodes = true,
       .run =
           [](Engine& e, const Draw& d) {
             run_hier_allgather(e,
                                {AllgatherAlgo::RecursiveDoubling,
                                 IntraAlgo::Binomial,
                                 fix_for(d, OrderFix::InitComm)},
                                d.oldrank);
           },
       .contract = hier(false)},
      {.name = "hier-allgather-ring",
       .hierarchical = true,
       .compressed = true,
       .run =
           [](Engine& e, const Draw& d) {
             run_hier_allgather(e,
                                {AllgatherAlgo::Ring, IntraAlgo::Linear,
                                 fix_for(d, OrderFix::EndShuffle)},
                                d.oldrank);
           },
       .contract = hier(false)},
      {.name = "hier-allgather-pipelined",
       .hierarchical = true,
       .run =
           [](Engine& e, const Draw& d) {
             run_hier_allgather_pipelined(e, IntraAlgo::Linear,
                                          fix_for(d, OrderFix::InitComm),
                                          d.oldrank);
           },
       .contract = hier(true)},
      {.name = "gather-linear",
       .layout = Layout::Gather,
       .run =
           [](Engine& e, const Draw& d) {
             run_gather(e, TreeAlgo::Linear, OrderFix::None, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_gather(d.p, d.p, TreeAlgo::Linear, d.oldrank);
           }},
      {.name = "gather-binomial",
       .layout = Layout::Gather,
       .run =
           [](Engine& e, const Draw& d) {
             run_gather(e, TreeAlgo::Binomial,
                        fix_for(d, OrderFix::EndShuffle), d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_gather(d.p, d.p, TreeAlgo::Binomial, d.oldrank);
           }},
      {.name = "bcast-linear",
       .layout = Layout::Bcast,
       .run = [](Engine& e, const Draw&) { run_bcast(e, TreeAlgo::Linear); },
       .contract =
           [](const Draw& d) {
             return contract_bcast(d.p, 1, TreeAlgo::Linear);
           }},
      {.name = "bcast-binomial",
       .layout = Layout::Bcast,
       .run = [](Engine& e,
                 const Draw&) { run_bcast(e, TreeAlgo::Binomial); },
       .contract =
           [](const Draw& d) {
             return contract_bcast(d.p, d.p, TreeAlgo::Binomial);
           }},
      {.name = "bcast-scatter-allgather-rd",
       .sizes = Sizes::Pow2,
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw&) {
             run_bcast_scatter_allgather(e, AllgatherAlgo::RecursiveDoubling);
           },
       .contract =
           [](const Draw& d) {
             return contract_bcast_scatter_allgather(
                 d.p, d.p, AllgatherAlgo::RecursiveDoubling);
           }},
      {.name = "bcast-scatter-allgather-ring",
       .compressed = true,
       .layout = Layout::Allgather,
       .run =
           [](Engine& e, const Draw&) {
             run_bcast_scatter_allgather(e, AllgatherAlgo::Ring);
           },
       .contract =
           [](const Draw& d) {
             return contract_bcast_scatter_allgather(d.p, d.p,
                                                     AllgatherAlgo::Ring);
           }},
      {.name = "scatter-linear",
       .layout = Layout::Scatter,
       .run =
           [](Engine& e, const Draw& d) {
             run_scatter(e, TreeAlgo::Linear, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_scatter(d.p, d.p, TreeAlgo::Linear, d.oldrank);
           }},
      {.name = "scatter-binomial",
       .layout = Layout::Scatter,
       .run =
           [](Engine& e, const Draw& d) {
             run_scatter(e, TreeAlgo::Binomial, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_scatter(d.p, d.p, TreeAlgo::Binomial, d.oldrank);
           }},
      {.name = "alltoall-rotation",
       .layout = Layout::Alltoall,
       .run =
           [](Engine& e, const Draw& d) {
             run_alltoall(e, AlltoallAlgo::Rotation, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_alltoall(d.p, 2 * d.p, AlltoallAlgo::Rotation,
                                      d.oldrank);
           }},
      {.name = "alltoall-pairwise",
       .sizes = Sizes::Pow2,
       .layout = Layout::Alltoall,
       .run =
           [](Engine& e, const Draw& d) {
             run_alltoall(e, AlltoallAlgo::PairwiseXor, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_alltoall(d.p, 2 * d.p, AlltoallAlgo::PairwiseXor,
                                      d.oldrank);
           }},
      {.name = "allreduce-rd",
       .sizes = Sizes::Pow2,
       .runner_seeds = false,
       .run = [](Engine& e, const Draw&) { run_allreduce_rd(e); },
       .contract =
           [](const Draw& d) { return contract_allreduce_rd(d.p, 1); }},
      {.name = "allreduce-rabenseifner",
       .sizes = Sizes::Pow2,
       .runner_seeds = false,
       .run = [](Engine& e, const Draw&) { run_allreduce_rabenseifner(e); },
       .contract =
           [](const Draw& d) {
             return contract_allreduce_rabenseifner(d.p, d.p);
           }},
      {.name = "allreduce-ring",
       .compressed = true,
       .runner_seeds = false,
       .run = [](Engine& e, const Draw&) { run_allreduce_ring(e); },
       .contract =
           [](const Draw& d) {
             return contract_allreduce_rabenseifner(d.p, d.p);
           }},
      {.name = "reduce-binomial",
       .runner_seeds = false,
       .run = [](Engine& e, const Draw&) { run_reduce_binomial(e); },
       .contract = [](const Draw& d) { return contract_reduce(d.p, 1); }},
      {.name = "allgatherv-ring",
       .one_byte_blocks = true,
       .run =
           [](Engine& e, const Draw& d) {
             run_allgatherv_ring(e, d.counts, d.oldrank);
           },
       .contract =
           [](const Draw& d) {
             return contract_allgatherv(d.counts, d.oldrank);
           }},
  };
  return kSchedules;
}

// ---------------------------------------------------------------------------
// Differential oracle: hand-written expectations beside check_output
// ---------------------------------------------------------------------------

/// The reference check: each layout written out slot by slot.  Returns the
/// first slot, rank-major and blocks ascending, whose tag differs.
std::optional<Slot> reference_verdict(Layout layout, const Engine& eng,
                                      const RankVec& oldrank) {
  const int p = eng.comm().size();
  switch (layout) {
    case Layout::Allgather:  // every rank: tag b at block b
      for (Rank r = 0; r < p; ++r)
        for (int b = 0; b < p; ++b)
          if (eng.block(r, b) != static_cast<std::uint32_t>(b))
            return Slot{r, b};
      break;
    case Layout::Gather:  // the root: tag b at block b
      for (int b = 0; b < p; ++b)
        if (eng.block(0, b) != static_cast<std::uint32_t>(b))
          return Slot{0, b};
      break;
    case Layout::Bcast:  // every rank: the root's message at block 0
      for (Rank r = 0; r < p; ++r)
        if (eng.block(r, 0) != kBcastMessageTag) return Slot{r, 0};
      break;
    case Layout::Scatter:  // new rank j: tag oldrank[j] at block j
      for (Rank j = 0; j < p; ++j)
        if (eng.block(j, j) != static_cast<std::uint32_t>(oldrank[j]))
          return Slot{j, j};
      break;
    case Layout::Alltoall:  // receive slot p+i: what original rank i sent
      for (Rank j = 0; j < p; ++j)
        for (Rank i = 0; i < p; ++i)
          if (eng.block(j, p + i) != alltoall_tag(i, oldrank[j]))
            return Slot{j, p + i};
      break;
  }
  return std::nullopt;
}

class ContractOracle : public ::testing::TestWithParam<int> {};

TEST_P(ContractOracle, AcceptsAndRejectsLikeTheReferenceAuditor) {
  const int p = GetParam();
  Rng rng(900 + static_cast<std::uint64_t>(p));
  const Machine m = Machine::gpc((p + 7) / 8);
  int runs = 0;
  for (const Schedule& sch : schedules()) {
    if (!sch.layout || sch.hierarchical || !accepts(sch.sizes, p)) continue;
    for (const bool reorder : {false, true}) {
      const Communicator comm(
          m, simmpi::make_layout(m, p,
                                 simmpi::all_layouts()[rng.next_below(4)]));
      Draw d;
      d.p = p;
      d.oldrank =
          reorder ? random_permutation(p, rng) : identity_permutation(p);
      const Communicator use = arbitrary_reorder(comm, d.oldrank);
      const Contract c = sch.contract(d);
      Engine eng(use, CostConfig{}, ExecMode::Data, 64, c.buf_blocks);
      sch.run(eng, d);
      const std::string label = std::string(sch.name) + " p=" +
                                std::to_string(p) +
                                (reorder ? " reordered" : " identity");

      EXPECT_EQ(reference_verdict(*sch.layout, eng, d.oldrank), std::nullopt)
          << label;
      EXPECT_EQ(contract_verdict(eng, c), std::nullopt) << label;

      // Overwrite one random slot with a different tag.
      const auto r = static_cast<Rank>(rng.next_below(p));
      const auto b = static_cast<int>(rng.next_below(c.buf_blocks));
      eng.set_block(r, b,
                    eng.block(r, b) ^ static_cast<std::uint32_t>(
                                          1 + rng.next_below(1u << 30)));
      const std::optional<Slot> ref =
          reference_verdict(*sch.layout, eng, d.oldrank);
      const std::optional<Slot> got = contract_verdict(eng, c);
      EXPECT_EQ(ref, got) << label << " corrupted at rank " << r << " block "
                          << b;
      if (got.has_value()) {
        EXPECT_EQ(*got, Slot(r, b)) << label;
      } else {
        EXPECT_EQ(c.required(r, b), nullptr)
            << label << ": both accepted a corrupted constrained slot";
      }
      ++runs;
    }
  }
  EXPECT_GE(runs, 2 * 10);  // ten schedules with a layout accept every size
}

INSTANTIATE_TEST_SUITE_P(Sizes, ContractOracle, ::testing::Range(1, 33));

// ---------------------------------------------------------------------------
// Randomized three-way check
// ---------------------------------------------------------------------------

/// A random permutation that keeps node blocks of `cpn` ranks together:
/// node blocks are permuted, and ranks within each block.
RankVec node_block_permutation(int nodes, int cpn, Rng& rng) {
  const std::vector<int> node_of = random_permutation(nodes, rng);
  RankVec oldrank(static_cast<std::size_t>(nodes) * cpn);
  for (int n = 0; n < nodes; ++n) {
    const std::vector<int> within = random_permutation(cpn, rng);
    for (int t = 0; t < cpn; ++t)
      oldrank[n * cpn + t] = node_of[n] * cpn + within[t];
  }
  return oldrank;
}

class ContractThreeWay : public ::testing::TestWithParam<int> {};

TEST_P(ContractThreeWay, ContractAnalyzerAndTimedModeAgree) {
  const int seed = GetParam();
  const Schedule& sch =
      schedules()[static_cast<std::size_t>(seed) % schedules().size()];
  Rng rng(7000 + static_cast<std::uint64_t>(seed));
  const int cpn = Machine::gpc(1).cores_per_node();
  const bool needs_pow2 = sch.sizes == Sizes::Pow2 || sch.pow2_nodes;

  // The communicator: flat GPC, or GPC with 4-7 nodes shrunk around one
  // failed node.  Survivor counts are 8 x (3..6); only 4 surviving nodes
  // give a power of two.
  const bool shrunken = rng.next_below(3) == 0;
  std::optional<Machine> machine;
  std::optional<fault::DegradedTopology> topo;
  std::optional<Communicator> comm;
  if (shrunken) {
    const int nodes = needs_pow2 ? 5 : 4 + static_cast<int>(rng.next_below(4));
    machine.emplace(Machine::gpc(nodes));
    const Communicator parent(
        *machine, simmpi::make_layout(*machine, machine->total_cores(), {}));
    topo.emplace(*machine, fault::FaultMask{}.fail_node(static_cast<NodeId>(
                               rng.next_below(nodes))));
    comm.emplace(fault::shrink_communicator(*topo, parent).comm);
  } else {
    int p = 0;
    simmpi::LayoutSpec layout;
    if (sch.hierarchical) {
      const int nodes = sch.pow2_nodes
                            ? 1 << rng.next_below(3)
                            : 1 + static_cast<int>(rng.next_below(4));
      p = nodes * cpn;
    } else {
      do {
        p = 1 + static_cast<int>(rng.next_below(32));
      } while (!accepts(sch.sizes, p));
      layout = simmpi::all_layouts()[rng.next_below(4)];
    }
    machine.emplace(Machine::gpc((p + cpn - 1) / cpn));
    comm.emplace(*machine, simmpi::make_layout(*machine, p, layout));
  }

  Draw d;
  d.p = comm->size();
  const bool reorder = rng.next_below(2) == 0;
  d.oldrank = !reorder ? identity_permutation(d.p)
              : sch.hierarchical
                  ? node_block_permutation(d.p / cpn, cpn, rng)
                  : random_permutation(d.p, rng);
  for (int r = 0; r < d.p; ++r)
    d.counts.push_back(1 + static_cast<int>(rng.next_below(5)));
  const Communicator use = arbitrary_reorder(*comm, d.oldrank);
  const Contract c = sch.contract(d);
  const Bytes block = sch.one_byte_blocks ? 1 : 64 << rng.next_below(4);

  // Transient faults only where both modes issue the same transfers.
  simmpi::TransientFaultConfig faults;
  const bool armed =
      !sch.compressed && !sch.coalesced && rng.next_below(2) == 0;
  if (armed) {
    faults.drop_prob = 0.2;
    faults.corrupt_prob = 0.1;
    faults.seed = rng.next_u64();
  }
  const std::string label =
      std::string(sch.name) + " p=" + std::to_string(d.p) +
      (shrunken ? " shrunken" : "") + (reorder ? " reordered" : "") +
      (armed ? " faults" : "");

  auto run = [&](Engine& eng) {
    if (armed) eng.set_transient_faults(faults);
    if (!sch.runner_seeds)
      for (const Contract::Seed& s : c.seeds)
        eng.set_block(s.rank, s.block, s.tag);
    sch.run(eng, d);
  };

  // 1. The Data-mode run satisfies the contract.
  Engine data(use, CostConfig{}, ExecMode::Data, block, c.buf_blocks);
  trace::ScheduleRecorder recorder;
  data.set_trace_sink(&recorder);
  run(data);
  data.set_trace_sink(nullptr);
  EXPECT_NO_THROW(check_output(data, c)) << label;

  // 2. The analyzer certifies the same run's recording.
  const analyze::Certificate cert =
      analyze::analyze(recorder.take(), use.machine(), c);
  EXPECT_TRUE(cert.certified) << label << "\n" << cert.format();

  // 3. Timed mode prices the same schedule to the same total.
  Engine timed(use, CostConfig{}, ExecMode::Timed, block, c.buf_blocks);
  run(timed);
  if (sch.compressed) {
    EXPECT_NEAR(timed.total(), data.total(),
                1e-9 * std::max(1.0, data.total()))
        << label;
  } else {
    EXPECT_EQ(timed.total(), data.total()) << label;
  }
}

// Three draws of each of the 23 schedules.
INSTANTIATE_TEST_SUITE_P(Draws, ContractThreeWay, ::testing::Range(0, 69));

}  // namespace
}  // namespace tarr::collectives
