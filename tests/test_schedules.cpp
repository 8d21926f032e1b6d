// The schedule table (collectives/schedules.hpp) against the dispatchers it
// replaced: copies of the `tarr` driver's pattern switch, the fault
// campaign's and the probed scenario's collective switches and the runners
// of `tarr analyze`'s old spec table, each run beside the table entry its
// caller now reads.  Every pair must price the same Timed total and record
// the same schedule, on GPC machines of 2-64 nodes, at the identity and
// under random permutations, and for the campaign also under transient
// faults.

#include "collectives/schedules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/neighbor.hpp"
#include "collectives/reduce_barrier.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "fuzz_support.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"

namespace tarr::collectives {
namespace {

using mapping::Pattern;
using simmpi::Communicator;
using simmpi::Engine;
using RankVec = std::vector<Rank>;
using Runner = std::function<void(Engine&, const RankVec&)>;

TEST(Schedules, FindScheduleNamesAnUnknownOne) {
  EXPECT_STREQ(find_schedule("allgather-ring").name, "allgather-ring");
  try {
    find_schedule("allgather-bogus");
    ADD_FAILURE() << "no error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("allgather-bogus"),
              std::string::npos);
  }
}

/// The schedules whose runners ignore `oldrank`: broadcasts from new rank 0
/// and reductions, whose outputs have no rank order (§V-B).
bool ignores_oldrank(const Schedule& s) {
  for (const char* name :
       {"bcast-linear", "bcast-binomial", "bcast-scatter-allgather",
        "bcast-scatter-allgather-ring", "allreduce-rd",
        "allreduce-rabenseifner", "allreduce-ring", "reduce-binomial"})
    if (std::string_view(s.name) == name) return true;
  return false;
}

TEST(Schedules, EveryOldrankReaderRejectsABadInput) {
  // Two whole 8-core nodes: every schedule runs on 16 ranks.
  const topology::Machine m = topology::Machine::gpc(2);
  const int p = m.total_cores();
  const Communicator comm(m, simmpi::make_layout(m, p, {}));
  const RankVec short_by_one = identity_permutation(p - 1);
  RankVec duplicate = identity_permutation(p);
  duplicate[p - 1] = duplicate[0];
  // The error a run throws, or "" when it completes.
  const auto error = [&](const Schedule& s, int blocks, const RankVec& o) {
    Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Data, 64,
               blocks);
    try {
      s.run(eng, o);
    } catch (const Error& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  const auto rejects = [](const std::string& what, const char* why) {
    return what.find(why) != std::string::npos;
  };
  int readers = 0;
  for (const Schedule& s : schedules()) {
    const int blocks = s.buf_blocks(p);
    ASSERT_EQ(error(s, blocks, identity_permutation(p)), "") << s.name;
    if (ignores_oldrank(s)) {
      EXPECT_EQ(error(s, blocks, short_by_one), "") << s.name;
      EXPECT_EQ(error(s, blocks, duplicate), "") << s.name;
      continue;
    }
    // Each is rejected by the shared check, whose message names it.
    EXPECT_TRUE(rejects(error(s, blocks, short_by_one),
                        ": oldrank size mismatch"))
        << s.name;
    EXPECT_TRUE(rejects(error(s, blocks, duplicate),
                        ": oldrank is not a permutation"))
        << s.name;
    EXPECT_TRUE(rejects(error(s, blocks - 1, identity_permutation(p)),
                        ": buffer too small"))
        << s.name;
    ++readers;
  }
  EXPECT_EQ(readers, 16);
}

// ---------------------------------------------------------------------------
// The replaced dispatchers, as they were
// ---------------------------------------------------------------------------

/// The driver's run_collective: --pattern -> collective.
void driver_switch(Engine& eng, Pattern pattern, const RankVec& oldrank) {
  switch (pattern) {
    case Pattern::RecursiveDoubling:
      run_allgather(eng, {AllgatherAlgo::RecursiveDoubling, OrderFix::InitComm},
                    oldrank);
      break;
    case Pattern::Ring:
      run_allgather(eng, {AllgatherAlgo::Ring, OrderFix::None}, oldrank);
      break;
    case Pattern::Bruck:
      run_allgather(eng, {AllgatherAlgo::Bruck, OrderFix::None}, oldrank);
      break;
    case Pattern::BinomialBcast:
      run_bcast(eng, TreeAlgo::Binomial);
      break;
    case Pattern::BinomialGather:
      run_gather(eng, TreeAlgo::Binomial, OrderFix::InitComm, oldrank);
      break;
  }
}

/// The fault campaign's Op switch.
enum class Op { RdAllgather, RingAllgather, BinomialBcast, BinomialGather };

void campaign_switch(Engine& eng, Op op, const RankVec& oldrank) {
  switch (op) {
    case Op::RdAllgather:
      run_allgather(eng, {AllgatherAlgo::RecursiveDoubling, OrderFix::InitComm},
                    oldrank);
      break;
    case Op::RingAllgather:
      run_allgather(eng, {AllgatherAlgo::Ring, OrderFix::None}, oldrank);
      break;
    case Op::BinomialBcast:
      run_bcast(eng, TreeAlgo::Binomial);
      break;
    case Op::BinomialGather:
      run_gather(eng, TreeAlgo::Binomial, OrderFix::InitComm, oldrank);
      break;
  }
}

/// The probed scenario's switch (alltoall on a 2p buffer, the ring on p).
enum class ScenarioPattern { RingAllreduce, Alltoall };

void scenario_switch(Engine& eng, ScenarioPattern pat, const RankVec& oldrank) {
  switch (pat) {
    case ScenarioPattern::RingAllreduce:
      run_allreduce_ring(eng);
      break;
    case ScenarioPattern::Alltoall:
      run_alltoall(eng, AlltoallAlgo::Rotation, oldrank);
      break;
  }
}

/// One entry of `tarr analyze`'s spec table.
struct Spec {
  const char* name;
  int buf_mul;  ///< buf_blocks = buf_mul * p, or 1 when buf_mul == 0
  Pattern pattern;
  bool reorderable;
  bool hierarchical;
  Runner run;
};

/// Its identity runs used no order fix.
OrderFix fix_off_at_identity(const RankVec& o, OrderFix fix) {
  return o == identity_permutation(static_cast<int>(o.size())) ? OrderFix::None
                                                               : fix;
}

const std::vector<Spec>& specs() {
  const auto ag = [](AllgatherAlgo a, OrderFix f) -> Runner {
    return [=](Engine& e, const RankVec& o) {
      run_allgather(e, {a, fix_off_at_identity(o, f)}, o);
    };
  };
  const auto tree = [](auto run, TreeAlgo a) -> Runner {
    return [=](Engine& e, const RankVec& o) { run(e, a, o); };
  };
  const auto gather = [](TreeAlgo a, OrderFix f) -> Runner {
    return [=](Engine& e, const RankVec& o) {
      run_gather(e, a, fix_off_at_identity(o, f), o);
    };
  };
  const auto bcast = [](TreeAlgo a) -> Runner {
    return [=](Engine& e, const RankVec&) { run_bcast(e, a); };
  };
  const auto flat = [](auto run) -> Runner {
    return [=](Engine& e, const RankVec&) { run(e); };
  };
  const auto alltoall = [](AlltoallAlgo a) -> Runner {
    return [=](Engine& e, const RankVec& o) { run_alltoall(e, a, o); };
  };
  using enum Pattern;
  static const std::vector<Spec> kSpecs = {
      {"allgather-rd", 1, RecursiveDoubling, true, false,
       ag(AllgatherAlgo::RecursiveDoubling, OrderFix::InitComm)},
      {"allgather-rd-endshuffle", 1, RecursiveDoubling, true, false,
       ag(AllgatherAlgo::RecursiveDoubling, OrderFix::EndShuffle)},
      {"allgather-ring", 1, Ring, true, false,
       ag(AllgatherAlgo::Ring, OrderFix::None)},
      {"allgather-bruck", 1, Bruck, true, false,
       ag(AllgatherAlgo::Bruck, OrderFix::None)},
      {"allgather-neighbor", 1, Ring, true, false,
       [](Engine& e, const RankVec& o) { run_allgather_neighbor(e, o); }},
      {"hier-allgather", 1, RecursiveDoubling, false, true,
       [](Engine& e, const RankVec& o) {
         run_hier_allgather(e, HierAllgatherOptions{}, o);
       }},
      {"hier-allgather-pipelined", 1, RecursiveDoubling, false, true,
       [](Engine& e, const RankVec& o) {
         run_hier_allgather_pipelined(e, IntraAlgo::Binomial, OrderFix::None,
                                      o);
       }},
      {"gather-linear", 1, BinomialGather, true, false,
       gather(TreeAlgo::Linear, OrderFix::None)},
      {"gather-binomial", 1, BinomialGather, true, false,
       gather(TreeAlgo::Binomial, OrderFix::InitComm)},
      {"bcast-linear", 0, BinomialBcast, true, false, bcast(TreeAlgo::Linear)},
      {"bcast-binomial", 0, BinomialBcast, true, false,
       bcast(TreeAlgo::Binomial)},
      {"bcast-scatter-allgather", 1, BinomialBcast, false, false,
       [](Engine& e, const RankVec&) {
         run_bcast_scatter_allgather(e, AllgatherAlgo::RecursiveDoubling);
       }},
      {"scatter-linear", 1, BinomialGather, true, false,
       tree(run_scatter, TreeAlgo::Linear)},
      {"scatter-binomial", 1, BinomialGather, true, false,
       tree(run_scatter, TreeAlgo::Binomial)},
      {"alltoall-rotation", 2, RecursiveDoubling, true, false,
       alltoall(AlltoallAlgo::Rotation)},
      {"alltoall-pairwise", 2, RecursiveDoubling, true, false,
       alltoall(AlltoallAlgo::PairwiseXor)},
      {"allreduce-rd", 0, RecursiveDoubling, false, false,
       flat(run_allreduce_rd)},
      {"allreduce-rabenseifner", 1, RecursiveDoubling, false, false,
       flat(run_allreduce_rabenseifner)},
      {"allreduce-ring", 1, Ring, false, false, flat(run_allreduce_ring)},
      {"reduce-binomial", 0, BinomialGather, false, false,
       flat(run_reduce_binomial)},
  };
  return kSpecs;
}

// ---------------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------------

/// One Timed run: its total and its recorded schedule.
struct Run {
  Usec total = 0.0;
  trace::ScheduleRecord record;
};

Run timed(const Communicator& comm, int blocks,
          const std::optional<simmpi::TransientFaultConfig>& faults,
          const std::function<void(Engine&)>& body) {
  trace::Tracer recorder;
  obs::Install traced(&recorder);
  Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed, 2048,
             blocks);
  if (faults) eng.set_transient_faults(*faults);
  body(eng);
  return {eng.total(), recorder.take()};
}

void expect_same(const Run& old, const Run& table, const std::string& label) {
  EXPECT_EQ(old.total, table.total) << label;
  EXPECT_TRUE(old.record == table.record) << label;
}

class TableOracle : public ::testing::TestWithParam<int> {};

TEST_P(TableOracle, EveryReplacedDispatcherRunsAsItsTableEntry) {
  const int draw = GetParam();
  Rng rng(4100 + static_cast<std::uint64_t>(draw));
  // Draws 0 and 1 run on 64 nodes, the rest on 2-63.
  const int nodes = draw < 2 ? 64 : 2 + static_cast<int>(rng.next_below(62));
  const topology::Machine m = topology::Machine::gpc(nodes);
  const int cores = m.total_cores();
  // Power-of-two flat runs of 2-256 ranks, in a random layout.
  const auto span = static_cast<std::uint64_t>(std::min(cores, 256) - 1);
  const auto p = static_cast<int>(
      floor_pow2(2 + static_cast<std::int64_t>(rng.next_below(span))));
  const Communicator flat(
      m, simmpi::make_layout(m, p, simmpi::all_layouts()[rng.next_below(4)]));
  // Hierarchical runs need whole nodes: the largest power-of-two count.
  const topology::Machine hm =
      topology::Machine::gpc(static_cast<int>(floor_pow2(nodes)));
  const Communicator hier(
      hm, simmpi::make_layout(hm, hm.total_cores(), simmpi::LayoutSpec{}));
  const bool reorder = draw % 2 == 1;
  const RankVec oldrank =
      reorder ? fuzz::random_permutation(p, rng) : identity_permutation(p);
  const Communicator use = fuzz::arbitrary_reorder(flat, oldrank);
  const std::string at = " nodes=" + std::to_string(nodes) +
                         " p=" + std::to_string(p) +
                         (reorder ? " reordered" : " identity");

  // `tarr analyze`: every spec beside the entry of its name.  Hierarchical
  // specs never took a reordering.
  for (const Spec& spec : specs()) {
    const Schedule& s = find_schedule(spec.name);
    EXPECT_EQ(s.reorderable, spec.reorderable) << spec.name;
    if (spec.reorderable) {
      EXPECT_EQ(s.pattern, spec.pattern) << spec.name;
    }
    EXPECT_EQ(s.hierarchical, spec.hierarchical) << spec.name;
    const Communicator& comm = spec.hierarchical ? hier : use;
    const RankVec o =
        spec.hierarchical ? identity_permutation(comm.size()) : oldrank;
    const int blocks = spec.buf_mul == 0 ? 1 : spec.buf_mul * comm.size();
    EXPECT_EQ(s.buf_blocks(comm.size()), blocks) << spec.name;
    expect_same(timed(comm, blocks, {}, [&](Engine& e) { spec.run(e, o); }),
                timed(comm, blocks, {}, [&](Engine& e) { s.run(e, o); }),
                std::string(spec.name) + at);
  }

  // The driver: a p-block engine whichever pattern runs.
  for (const auto& [pattern, name] :
       {std::pair{Pattern::RecursiveDoubling, "allgather-rd"},
        std::pair{Pattern::Ring, "allgather-ring"},
        std::pair{Pattern::Bruck, "allgather-bruck"},
        std::pair{Pattern::BinomialBcast, "bcast-binomial"},
        std::pair{Pattern::BinomialGather, "gather-binomial"}}) {
    expect_same(
        timed(use, p, {},
              [&](Engine& e) { driver_switch(e, pattern, oldrank); }),
        timed(use, p, {},
              [&](Engine& e) { find_schedule(name).run(e, oldrank); }),
        std::string("driver ") + name + at);
  }

  // The campaign: a p-block engine before, the entry's buffer now; with
  // transient faults off and on.
  simmpi::TransientFaultConfig drops;
  drops.drop_prob = 0.1;
  drops.corrupt_prob = 0.05;
  drops.seed = rng.next_u64();
  for (const std::optional<simmpi::TransientFaultConfig>& faults :
       {std::optional<simmpi::TransientFaultConfig>{}, std::optional{drops}}) {
    for (const auto& [op, name] :
         {std::pair{Op::RdAllgather, "allgather-rd"},
          std::pair{Op::RingAllgather, "allgather-ring"},
          std::pair{Op::BinomialBcast, "bcast-binomial"},
          std::pair{Op::BinomialGather, "gather-binomial"}}) {
      const Schedule& s = find_schedule(name);
      expect_same(
          timed(use, p, faults,
                [&](Engine& e) { campaign_switch(e, op, oldrank); }),
          timed(use, s.buf_blocks(p), faults,
                [&](Engine& e) { s.run(e, oldrank); }),
          std::string("campaign ") + name + (faults ? " faults" : "") + at);
    }
  }

  // The scenario, on every core.
  const Communicator all(m, simmpi::make_layout(m, cores, {}));
  const RankVec all_oldrank = reorder ? fuzz::random_permutation(cores, rng)
                                      : identity_permutation(cores);
  const Communicator all_use = fuzz::arbitrary_reorder(all, all_oldrank);
  for (const auto& [pat, name, blocks] :
       {std::tuple{ScenarioPattern::RingAllreduce, "allreduce-ring", cores},
        std::tuple{ScenarioPattern::Alltoall, "alltoall-rotation",
                   2 * cores}}) {
    const Schedule& s = find_schedule(name);
    EXPECT_EQ(s.buf_blocks(cores), blocks) << name;
    expect_same(
        timed(all_use, blocks, {},
              [&](Engine& e) { scenario_switch(e, pat, all_oldrank); }),
        timed(all_use, s.buf_blocks(cores), {},
              [&](Engine& e) { s.run(e, all_oldrank); }),
        std::string("scenario ") + name + at);
  }
}

// Even draws at the identity, odd ones reordered.
INSTANTIATE_TEST_SUITE_P(Draws, TableOracle, ::testing::Range(0, 12));

}  // namespace
}  // namespace tarr::collectives
