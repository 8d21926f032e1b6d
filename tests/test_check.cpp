// Tests for the tarr::check verification subsystem: the stage-schedule
// verifier, the mapping bijection verifier, and their integration points
// (Engine hooks, Mapper::checked_map, the TARR_CHECK_SLOW macro tier).

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "mapping/heuristics.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"

namespace tarr::check {
namespace {

using simmpi::Communicator;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::LayoutSpec;
using simmpi::make_layout;
using topology::Machine;

/// Expects `fn()` to throw tarr::Error whose message contains `needle`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected tarr::Error containing \"" << needle << "\"";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error message was: " << e.what();
  }
}

// ---------------------------------------------------------------------------
// StageVerifier
// ---------------------------------------------------------------------------

StageVerifier make_verifier(int p = 4, int blocks = 8) {
  std::vector<CoreId> cores(p);
  for (int r = 0; r < p; ++r) cores[r] = r;  // one rank per core
  return StageVerifier(p, blocks, std::move(cores));
}

TEST(StageVerifier, AcceptsAWellFormedSchedule) {
  StageVerifier v = make_verifier();
  v.on_begin_stage();
  v.on_transfer(0, 0, 1, 0, 2, /*combining=*/false);
  v.on_transfer(1, 0, 0, 0, 1, /*combining=*/false);
  v.on_end_stage();
  v.on_begin_stage();
  v.on_transfer(2, 4, 3, 4, 4, /*combining=*/false);
  v.on_end_stage();
  EXPECT_EQ(v.stages_verified(), 2);
}

TEST(StageVerifier, ProtocolViolations) {
  StageVerifier v = make_verifier();
  expect_error_containing([&] { v.on_transfer(0, 0, 1, 0, 1, false); },
                          "[protocol]");
  expect_error_containing([&] { v.on_end_stage(); }, "[protocol]");
  v.on_begin_stage();
  expect_error_containing([&] { v.on_begin_stage(); }, "[protocol]");
}

TEST(StageVerifier, BoundsViolations) {
  StageVerifier v = make_verifier(4, 8);
  v.on_begin_stage();
  expect_error_containing([&] { v.on_transfer(0, 0, 4, 0, 1, false); },
                          "[bounds]");  // dst rank outside communicator
  expect_error_containing([&] { v.on_transfer(-1, 0, 1, 0, 1, false); },
                          "[bounds]");  // negative src rank
  expect_error_containing([&] { v.on_transfer(0, 7, 1, 0, 2, false); },
                          "[bounds]");  // source range overflows the buffer
  expect_error_containing([&] { v.on_transfer(0, 0, 1, 8, 1, false); },
                          "[bounds]");  // destination offset past the end
  expect_error_containing([&] { v.on_transfer(0, 0, 1, 0, 0, false); },
                          "[bounds]");  // zero blocks
}

TEST(StageVerifier, WriteWriteConflictWithinAStage) {
  StageVerifier v = make_verifier();
  v.on_begin_stage();
  v.on_transfer(0, 0, 2, 3, 1, false);
  expect_error_containing([&] { v.on_transfer(1, 0, 2, 3, 1, false); },
                          "write-write conflict");
}

TEST(StageVerifier, WriteCombineConflictWithinAStage) {
  StageVerifier v = make_verifier();
  v.on_begin_stage();
  v.on_transfer(0, 0, 2, 3, 1, /*combining=*/false);
  expect_error_containing([&] { v.on_transfer(1, 0, 2, 3, 1, true); },
                          "write-combine conflict");
}

TEST(StageVerifier, CombineCombineIsLegal) {
  // The combine op is commutative+associative, so two combines into the
  // same destination block within a stage are deterministic.
  StageVerifier v = make_verifier();
  v.on_begin_stage();
  v.on_transfer(0, 0, 2, 3, 1, /*combining=*/true);
  v.on_transfer(1, 0, 2, 3, 1, /*combining=*/true);
  v.on_end_stage();
  EXPECT_EQ(v.stages_verified(), 1);
}

TEST(StageVerifier, ConflictStateResetsBetweenStages) {
  // Writing the same destination block in two *different* stages is the
  // normal case, not a conflict.
  StageVerifier v = make_verifier();
  for (int s = 0; s < 3; ++s) {
    v.on_begin_stage();
    v.on_transfer(0, 0, 1, 0, 1, false);
    v.on_end_stage();
  }
  EXPECT_EQ(v.stages_verified(), 3);
}

TEST(StageVerifier, SharedCoreTransferIsAPricingBug) {
  // Two distinct ranks pinned to the same physical core: a transfer between
  // them would be priced as a remote message for a physically local copy.
  StageVerifier v(2, 4, std::vector<CoreId>{7, 7});
  v.on_begin_stage();
  expect_error_containing([&] { v.on_transfer(0, 0, 1, 0, 1, false); },
                          "[pricing]");
}

TEST(StageVerifier, SelfCopyOnOneRankIsFine) {
  // src == dst is a local buffer move, legal regardless of core sharing.
  StageVerifier v(2, 4, std::vector<CoreId>{7, 7});
  v.on_begin_stage();
  v.on_transfer(0, 0, 0, 1, 1, false);
  v.on_end_stage();
  EXPECT_EQ(v.stages_verified(), 1);
}

TEST(StageVerifier, EmptyStageIsAProgressBug) {
  StageVerifier v = make_verifier();
  v.on_begin_stage();
  expect_error_containing([&] { v.on_end_stage(); }, "[progress]");
}

// ---------------------------------------------------------------------------
// MappingVerifier
// ---------------------------------------------------------------------------

TEST(MappingVerifier, AcceptsABijectionOnASparseSlotUniverse) {
  // Slot ids need not be dense — a communicator can occupy a subset of the
  // machine's cores.
  const std::vector<int> input{10, 3, 42, 7};
  const std::vector<int> result{42, 7, 10, 3};
  EXPECT_NO_THROW(verify_mapping("test", input, result));
  EXPECT_NO_THROW(verify_mapping("test", input, input));  // identity
}

TEST(MappingVerifier, RejectsSizeMismatch) {
  expect_error_containing(
      [] { verify_mapping("RDMH", {1, 2, 3}, {1, 2}); },
      "mapping invariant violated [RDMH]");
}

TEST(MappingVerifier, RejectsSlotOutsideTheUniverse) {
  expect_error_containing(
      [] { verify_mapping("RMH", {1, 2, 3}, {1, 2, 99}); },
      "outside the slot universe");
}

TEST(MappingVerifier, RejectsDuplicateAssignment) {
  expect_error_containing(
      [] { verify_mapping("BGMH", {1, 2, 3}, {1, 2, 2}); },
      "not a bijection");
}

TEST(MappingVerifier, RejectsDuplicateInputSlot) {
  expect_error_containing(
      [] { verify_mapping("BBMH", {5, 5, 3}, {5, 5, 3}); },
      "hosts more than one rank");
}

TEST(MappingVerifier, CheckedMapCatchesABrokenMapper) {
  // A deliberately broken Mapper: returns the first slot for every rank.
  class BrokenMapper final : public mapping::Mapper {
   public:
    std::string name() const override { return "broken"; }
    std::vector<int> map(const std::vector<int>& rank_to_slot,
                         const topology::DistanceMatrix&,
                         Rng&) const override {
      return std::vector<int>(rank_to_slot.size(), rank_to_slot.at(0));
    }
  };
  const Machine m = Machine::gpc(1);
  const topology::DistanceMatrix d = topology::extract_distances(m);
  Rng rng(1);
  const std::vector<int> slots{0, 1, 2, 3};
  expect_error_containing(
      [&] { BrokenMapper{}.checked_map(slots, d, rng); },
      "mapping invariant violated [broken]");
  // Either level of a hierarchical mapper is checked the same way.
  const BrokenMapper broken;
  const auto rmh = mapping::make_heuristic(mapping::Pattern::Ring);
  const Machine two = Machine::gpc(2);
  const topology::DistanceMatrix d2 = topology::extract_distances(two);
  std::vector<int> cores(two.total_cores());
  std::iota(cores.begin(), cores.end(), 0);
  for (const mapping::HierarchicalMapper& hier :
       {mapping::HierarchicalMapper(broken, rmh.get()),
        mapping::HierarchicalMapper(*rmh, &broken)})
    expect_error_containing([&] { hier.checked_map(cores, d2, rng); },
                            "mapping invariant violated [broken]");
}

TEST(MappingVerifier, RealHeuristicsPassTheCheckedPath) {
  const Machine m = Machine::gpc(2);
  const topology::DistanceMatrix d = topology::extract_distances(m);
  Rng rng(7);
  std::vector<int> slots(16);
  for (int i = 0; i < 16; ++i) slots[i] = i;
  for (const auto pattern :
       {mapping::Pattern::RecursiveDoubling, mapping::Pattern::Ring,
        mapping::Pattern::BinomialBcast, mapping::Pattern::BinomialGather,
        mapping::Pattern::Bruck}) {
    const auto mapper = mapping::make_heuristic(pattern);
    EXPECT_NO_THROW(mapper->checked_map(slots, d, rng)) << mapper->name();
  }
}

// ---------------------------------------------------------------------------
// Engine integration of the StageVerifier (slow-check builds only)
// ---------------------------------------------------------------------------

TEST(EngineSlowChecks, EmptyStageRejectedWhenEnabled) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 2, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 4);
  eng.begin_stage();
  if constexpr (kSlowChecksEnabled) {
    expect_error_containing([&] { eng.end_stage(); }, "[progress]");
  } else {
    EXPECT_NO_THROW(eng.end_stage());
  }
}

TEST(EngineSlowChecks, WriteWriteConflictRejectedWhenEnabled) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 4);
  eng.begin_stage();
  eng.copy(0, 0, 2, 1, 1);
  if constexpr (kSlowChecksEnabled) {
    expect_error_containing([&] { eng.copy(1, 0, 2, 1, 1); },
                            "write-write conflict");
  } else {
    eng.copy(1, 0, 2, 1, 1);
    EXPECT_NO_THROW(eng.end_stage());
  }
}

TEST(EngineSlowChecks, WellFormedCollectivesStillRunGreen) {
  // Representative end-to-end run in whichever configuration this binary
  // was built: a reordered ring allgather must pass both the per-stage
  // verifier (if enabled) and the final contract check.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, LayoutSpec{}));
  Engine eng(comm, simmpi::CostConfig{}, ExecMode::Data, 64, 16);
  collectives::run_allgather(
      eng, collectives::AllgatherOptions{collectives::AllgatherAlgo::Ring,
                                         collectives::OrderFix::EndShuffle});
  EXPECT_NO_THROW(collectives::check_output(
      eng, collectives::contract_allgather(16, 16,
                                           collectives::AllgatherAlgo::Ring,
                                           identity_permutation(16))));
}

// ---------------------------------------------------------------------------
// TARR_CHECK_SLOW macro tier
// ---------------------------------------------------------------------------

TEST(SlowCheckMacro, FiresOnlyInSlowBuilds) {
  if constexpr (kSlowChecksEnabled) {
    EXPECT_THROW(TARR_CHECK_SLOW(false, "slow check fired"), Error);
  } else {
    // Compiled out: the condition must not even be evaluated.
    bool evaluated = false;
    TARR_CHECK_SLOW([&] {
      evaluated = true;
      return false;
    }(),
                    "never");
    EXPECT_FALSE(evaluated);
  }
  EXPECT_NO_THROW(TARR_CHECK_SLOW(true, "fine"));
}

// ---------------------------------------------------------------------------
// Permutation helper error paths (companions of the mapping verifier)
// ---------------------------------------------------------------------------

TEST(PermutationErrors, InvertRejectsNonPermutations) {
  EXPECT_THROW(invert_permutation({0, 2, 2}), Error);   // duplicate
  EXPECT_THROW(invert_permutation({0, 1, 5}), Error);   // out of range
  EXPECT_THROW(invert_permutation({-1, 1, 0}), Error);  // negative
}

}  // namespace
}  // namespace tarr::check
