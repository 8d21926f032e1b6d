#include "analyze/analyzer.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analyze/mutate.hpp"
#include "collectives/allgather.hpp"
#include "collectives/allreduce.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/contracts.hpp"
#include "collectives/gather_bcast.hpp"
#include "collectives/hierarchical.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "core/framework.hpp"
#include "fault/degraded.hpp"
#include "fault/shrink.hpp"
#include "simmpi/layout.hpp"
#include "trace/record.hpp"

namespace tarr::analyze {
namespace {

using collectives::AllgatherAlgo;
using collectives::AllgatherOptions;
using collectives::AlltoallAlgo;
using collectives::OrderFix;
using collectives::TreeAlgo;
using trace::ScheduleRecord;
using trace::ScheduleRecorder;
using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

/// Record one Data-mode run of `run` on a fresh engine.
template <typename Runner>
ScheduleRecord record_run(Engine& eng, Runner&& run) {
  ScheduleRecorder rec;
  eng.set_trace_sink(&rec);
  run(eng);
  eng.set_trace_sink(nullptr);
  return rec.take();
}

void expect_certified(const ScheduleRecord& rec, const Machine& m,
                      const Contract& c) {
  const Certificate cert = analyze(rec, m, c);
  EXPECT_TRUE(cert.certified) << cert.format();
}

TEST(AnalyzeCertifies, AllgatherAllAlgosIdentity) {
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const auto oldrank = identity_permutation(p);
  for (AllgatherAlgo algo : {AllgatherAlgo::RecursiveDoubling,
                             AllgatherAlgo::Ring, AllgatherAlgo::Bruck}) {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_allgather(e, AllgatherOptions{algo, OrderFix::None},
                                 oldrank);
    });
    const Contract c = collectives::contract_allgather(p, p, algo, oldrank);
    collectives::check_output(eng, c);  // the same contract, checked live
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, AllgatherReorderedBothFixes) {
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::RecursiveDoubling);
  for (OrderFix fix : {OrderFix::InitComm, OrderFix::EndShuffle}) {
    Engine eng(rc.comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_allgather(
          e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling, fix},
          rc.oldrank);
    });
    const Contract c = collectives::contract_allgather(
        p, p, AllgatherAlgo::RecursiveDoubling, rc.oldrank);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  // Ring and Bruck carry their own order correction.
  for (AllgatherAlgo algo : {AllgatherAlgo::Ring, AllgatherAlgo::Bruck}) {
    Engine eng(rc.comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_allgather(e, AllgatherOptions{algo, OrderFix::None},
                                 rc.oldrank);
    });
    const Contract c =
        collectives::contract_allgather(p, p, algo, rc.oldrank);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, HierarchicalAndPipelined) {
  const Machine m = Machine::gpc(2);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const auto oldrank = identity_permutation(p);
  {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_hier_allgather(
          e, collectives::HierAllgatherOptions{}, oldrank);
    });
    const Contract c =
        collectives::contract_hier_allgather(p, p, oldrank, false);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_hier_allgather_pipelined(
          e, collectives::IntraAlgo::Binomial, OrderFix::None, oldrank);
    });
    const Contract c =
        collectives::contract_hier_allgather(p, p, oldrank, true);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, GatherBcastScatterFamilies) {
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const auto oldrank = identity_permutation(p);
  for (TreeAlgo algo : {TreeAlgo::Linear, TreeAlgo::Binomial}) {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_gather(e, algo, OrderFix::None, oldrank);
    });
    const Contract c = collectives::contract_gather(p, p, algo, oldrank);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  for (TreeAlgo algo : {TreeAlgo::Linear, TreeAlgo::Binomial}) {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, 1);
    const ScheduleRecord rec = record_run(
        eng, [&](Engine& e) { collectives::run_bcast(e, algo); });
    const Contract c = collectives::contract_bcast(p, 1, algo);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  for (AllgatherAlgo ag : {AllgatherAlgo::RecursiveDoubling,
                           AllgatherAlgo::Ring}) {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_bcast_scatter_allgather(e, ag);
    });
    const Contract c = collectives::contract_bcast_scatter_allgather(p, p, ag);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  for (TreeAlgo algo : {TreeAlgo::Linear, TreeAlgo::Binomial}) {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_scatter(e, algo, oldrank);
    });
    const Contract c = collectives::contract_scatter(p, p, algo, oldrank);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, ReorderedScatterExercisesPermuteEvents) {
  // Binomial scatter pre-permutes every buffer with local_permute_all; a
  // reordered communicator makes that a real (non-identity) permutation,
  // so this certifies the analyzer's §V-B permutation semantics.
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::BinomialGather);
  Engine eng(rc.comm, CostConfig{}, ExecMode::Data, 256, p);
  const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
    collectives::run_scatter(e, TreeAlgo::Binomial, rc.oldrank);
  });
  bool saw_permute = false;
  for (const auto& e : rec.extras) saw_permute |= !e.dst_of_block.empty();
  EXPECT_TRUE(saw_permute || rc.oldrank == identity_permutation(p));
  expect_certified(
      rec, m, collectives::contract_scatter(p, p, TreeAlgo::Binomial,
                                            rc.oldrank));
}

TEST(AnalyzeCertifies, AlltoallBothAlgosReordered) {
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(
      m, make_layout(m, p,
                     LayoutSpec{simmpi::NodeOrder::Cyclic,
                                simmpi::SocketOrder::Scatter}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::RecursiveDoubling);
  for (AlltoallAlgo algo : {AlltoallAlgo::Rotation,
                            AlltoallAlgo::PairwiseXor}) {
    Engine eng(rc.comm, CostConfig{}, ExecMode::Data, 64, 2 * p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      collectives::run_alltoall(e, algo, rc.oldrank);
    });
    const Contract c =
        collectives::contract_alltoall(p, 2 * p, algo, rc.oldrank);
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, AllreduceRdAndRabenseifner) {
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  // Reduction runners do not seed: the run writes the contract's seeds.
  {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 256, 1);
    const Contract c = collectives::contract_allreduce_rd(p, 1);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      for (const Contract::Seed& sd : c.seeds)
        e.set_block(sd.rank, sd.block, sd.tag);
      collectives::run_allreduce_rd(e);
    });
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
  {
    Engine eng(comm, CostConfig{}, ExecMode::Data, 64, p);
    const Contract c = collectives::contract_allreduce_rabenseifner(p, p);
    const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
      for (const Contract::Seed& sd : c.seeds)
        e.set_block(sd.rank, sd.block, sd.tag);
      collectives::run_allreduce_rabenseifner(e);
    });
    collectives::check_output(eng, c);
    expect_certified(rec, m, c);
  }
}

TEST(AnalyzeCertifies, ShrunkenCommunicator) {
  // Post-fault: a node dies, the communicator shrinks, and the standard
  // contract at the survivor count applies verbatim.
  const Machine base = Machine::gpc(8);
  const Communicator parent(base, make_layout(base, base.total_cores(), {}));
  const fault::DegradedTopology topo(base, fault::FaultMask{}.fail_node(3));
  const fault::ShrunkComm shrunk = fault::shrink_communicator(topo, parent);
  const int s = shrunk.comm.size();
  const auto oldrank = identity_permutation(s);
  Engine eng(shrunk.comm, CostConfig{}, ExecMode::Data, 256, s);
  const ScheduleRecord rec = record_run(eng, [&](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None}, oldrank);
  });
  const Contract c =
      collectives::contract_allgather(s, s, AllgatherAlgo::Ring, oldrank);
  collectives::check_output(eng, c);
  expect_certified(rec, topo.machine(), c);
}

/// A well-formed two-rank contract over ten origins, which the tests below
/// break one way each.  Origin 1 is seeded twice with one tag, as
/// contract_allgatherv seeds every byte of a contribution.
Contract two_rank_contract() {
  Contract c;
  c.name = "two-rank";
  c.num_ranks = 2;
  c.buf_blocks = 2;
  c.num_origins = 10;
  c.seed(0, 0, 0);
  c.seed(1, 0, 1);
  c.seed(1, 1, 1);
  c.expect(1, 1, c.add_set(OriginSet::single(10, 0)));
  return c;
}

/// validate()'s error message, or "" when it accepts the contract.
std::string validate_error(const Contract& c) {
  try {
    c.validate();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ContractValidate, AcceptsAWellFormedContract) {
  EXPECT_EQ(validate_error(two_rank_contract()), "");
}

TEST(ContractValidate, RejectsSetMemberOutsideTheUniverse) {
  // single() sizes its bits in 64-origin words, so it accepts origin 12 in
  // a 10-origin universe; validate() must not.
  Contract c = two_rank_contract();
  c.expect(0, 1, c.add_set(OriginSet::single(10, 12)));
  EXPECT_NE(validate_error(c).find("required set 1 is not a subset"),
            std::string::npos)
      << validate_error(c);
}

TEST(ContractValidate, RejectsSetIndexOutOfRange) {
  for (const int bad : {1, -2}) {
    Contract c = two_rank_contract();
    c.expect(0, 1, bad);
    EXPECT_NE(validate_error(c).find("expected set index out of range"),
              std::string::npos)
        << bad;
  }
}

TEST(ContractValidate, RejectsOriginSeededWithTwoTags) {
  Contract c = two_rank_contract();
  c.seed(0, 1, 1, 99u);
  EXPECT_NE(validate_error(c).find("origin 1 is seeded with two different"),
            std::string::npos)
      << validate_error(c);
}

/// One recorded recursive-doubling allgather, the mutation harness's prey.
ScheduleRecord rd_record(int p) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
  return record_run(eng, [](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                            OrderFix::None});
  });
}

TEST(AnalyzeRejects, EachMutationClassWithDistinctLeadingFinding) {
  const Machine m = Machine::gpc(1);
  const int p = 8;
  const Contract contract = collectives::contract_allgather(
      p, p, AllgatherAlgo::RecursiveDoubling, identity_permutation(p));
  const ScheduleRecord pristine = rd_record(p);
  ASSERT_TRUE(analyze(pristine, m, contract).certified);

  const struct {
    Mutation mutation;
    Property expect_leading;
  } cases[] = {
      {Mutation::DropTransfer, Property::ContractViolation},
      {Mutation::SwapStages, Property::UninitializedRead},
      {Mutation::TruncateBytes, Property::ByteConservation},
      {Mutation::DuplicateBlock, Property::WriteConflict},
  };
  std::vector<Property> leadings;
  for (const auto& c : cases) {
    ScheduleRecord mutated = pristine;
    const std::string what = apply_mutation(mutated, c.mutation, 42);
    const Certificate cert = analyze(mutated, m, contract);
    EXPECT_FALSE(cert.certified)
        << to_string(c.mutation) << " (" << what << ") went undetected";
    EXPECT_EQ(cert.leading(), c.expect_leading)
        << to_string(c.mutation) << " (" << what << ") diagnosed as "
        << to_string(cert.leading()) << ":\n"
        << cert.format();
    leadings.push_back(cert.leading());
  }
  // The four classes are told apart, not lumped into one generic failure.
  for (std::size_t i = 0; i < leadings.size(); ++i)
    for (std::size_t j = i + 1; j < leadings.size(); ++j)
      EXPECT_NE(leadings[i], leadings[j]);
}

TEST(AnalyzeRejects, CounterexamplesAreByteStableAcrossRuns) {
  const Machine m = Machine::gpc(1);
  const int p = 8;
  const Contract contract = collectives::contract_allgather(
      p, p, AllgatherAlgo::RecursiveDoubling, identity_permutation(p));
  for (Mutation mu : {Mutation::DropTransfer, Mutation::SwapStages,
                      Mutation::TruncateBytes, Mutation::DuplicateBlock}) {
    ScheduleRecord a = rd_record(p);
    ScheduleRecord b = rd_record(p);
    const std::string what_a = apply_mutation(a, mu, 7);
    const std::string what_b = apply_mutation(b, mu, 7);
    EXPECT_EQ(what_a, what_b);
    EXPECT_EQ(analyze(a, m, contract).format(),
              analyze(b, m, contract).format());
  }
}

TEST(AnalyzeRejects, FindingsBeyondTheCapAreCountedNotRecorded) {
  // Twenty distinct copies of a ring allgather submitted twice: twenty write
  // conflicts, of which the certificate records 16 and counts the rest.
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  const auto oldrank = identity_permutation(p);
  Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
  ScheduleRecord rec = record_run(eng, [&](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None}, oldrank);
  });
  // A ring copy is named by its (src, dst, stage), so distinct
  // descriptions are distinct victims.
  std::set<std::string> duplicated;
  for (std::uint64_t seed = 1; duplicated.size() < 20; ++seed) {
    ScheduleRecord trial = rec;
    if (duplicated.insert(apply_mutation(trial, Mutation::DuplicateBlock, seed))
            .second)
      rec = std::move(trial);
  }
  const Certificate cert = analyze(
      rec, m, collectives::contract_allgather(p, p, AllgatherAlgo::Ring,
                                              oldrank));
  EXPECT_FALSE(cert.certified);
  // The doubled transfers also load their links twice, which the counter
  // cross-check reports (eight findings, under the cap).
  int conflicts = 0;
  for (const Finding& f : cert.findings)
    conflicts += f.property == Property::WriteConflict;
  EXPECT_EQ(conflicts, 16) << cert.format();
  EXPECT_EQ(cert.suppressed, 4);
  EXPECT_NE(cert.format().find("findings (" +
                               std::to_string(cert.findings.size()) +
                               " shown, 4 suppressed):"),
            std::string::npos)
      << cert.format();
}

TEST(AnalyzeParity, StaticStageLoadsEqualTraceCounters) {
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
  const ScheduleRecord rec = record_run(eng, [](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                            OrderFix::None});
  });
  ASSERT_FALSE(rec.loads.empty());
  for (const auto& s : rec.stages) {
    const auto recorded = rec.loads_of(s);
    const auto computed = static_stage_loads(rec, s, m);
    ASSERT_EQ(recorded.size(), computed.size());
    for (std::size_t i = 0; i < computed.size(); ++i) {
      EXPECT_EQ(recorded[i].qpi, computed[i].qpi);
      EXPECT_EQ(recorded[i].id, computed[i].id);
      EXPECT_EQ(recorded[i].dir, computed[i].dir);
      EXPECT_EQ(recorded[i].bytes, computed[i].bytes);  // bit-exact
    }
  }
}

TEST(AnalyzeParity, StaticLoadsFollowRetransmissionAttempts) {
  // Transient faults retransmit: every attempt reloads the wire, and the
  // static replay must multiply accordingly to match the traced counters.
  const Machine m = Machine::gpc(2);
  const int p = 16;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;
  Engine eng(comm, CostConfig{}, ExecMode::Data, 256, p);
  eng.set_transient_faults(faults);
  const ScheduleRecord rec = record_run(eng, [](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                            OrderFix::None});
  });
  bool retried = false;
  for (const auto& t : rec.transfers) retried |= t.attempts > 1;
  ASSERT_TRUE(retried);
  const Contract contract = collectives::contract_allgather(
      p, p, AllgatherAlgo::RecursiveDoubling, identity_permutation(p));
  const Certificate cert = analyze(rec, m, contract);
  EXPECT_TRUE(cert.certified) << cert.format();
  EXPECT_FALSE(cert.has(Property::CounterMismatch));
}

TEST(AnalyzeRejects, TimedRepeatCompressedRecordNeedsDataMode) {
  const Machine m = Machine::gpc(1);
  const int p = 8;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  ScheduleRecorder sink;
  eng.set_trace_sink(&sink);
  collectives::run_allgather(
      eng, AllgatherOptions{AllgatherAlgo::Ring, OrderFix::None});
  const ScheduleRecord rec = sink.take();
  const Certificate cert = analyze(
      rec, m,
      collectives::contract_allgather(p, p, AllgatherAlgo::Ring,
                                      identity_permutation(p)));
  EXPECT_FALSE(cert.certified);
  EXPECT_TRUE(cert.has(Property::Structure)) << cert.format();
}

TEST(AnalyzeOptionsTest, CapacityHazardWarnsWithoutRejecting) {
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  Engine eng(comm, CostConfig{}, ExecMode::Data, 1 << 20, p);
  const ScheduleRecord rec = record_run(eng, [](Engine& e) {
    collectives::run_allgather(
        e, AllgatherOptions{AllgatherAlgo::RecursiveDoubling,
                            OrderFix::None});
  });
  AnalyzeOptions opts;
  opts.max_link_load = 1e-6;  // everything is a hazard at this bound
  const Certificate cert = analyze(
      rec, m,
      collectives::contract_allgather(p, p,
                                      AllgatherAlgo::RecursiveDoubling,
                                      identity_permutation(p)),
      opts);
  EXPECT_TRUE(cert.certified) << cert.format();  // warnings do not reject
  EXPECT_TRUE(cert.has(Property::CapacityHazard));
}

}  // namespace
}  // namespace tarr::analyze
