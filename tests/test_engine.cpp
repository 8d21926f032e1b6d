#include "simmpi/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "analyze/analyzer.hpp"
#include "common/error.hpp"
#include "prof/obs.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

Engine make_engine(const Communicator& c, ExecMode mode, Bytes block = 64,
                   int blocks = 8) {
  return Engine(c, CostConfig{}, mode, block, blocks);
}

TEST(Engine, SetAndReadBlocks) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  e.set_block(2, 3, 77u);
  EXPECT_EQ(e.block(2, 3), 77u);
  EXPECT_EQ(e.block(0, 0), kEmptyTag);
}

TEST(Engine, CopyMovesTags) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  e.set_block(0, 0, 5u);
  e.set_block(0, 1, 6u);
  e.begin_stage();
  e.copy(0, 0, 1, 2, 2);
  e.end_stage();
  EXPECT_EQ(e.block(1, 2), 5u);
  EXPECT_EQ(e.block(1, 3), 6u);
}

TEST(Engine, SimultaneousExchangeReadsPreStageState) {
  // Both directions of an exchange must see the pre-stage values.
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  e.set_block(0, 0, 100u);
  e.set_block(1, 0, 200u);
  e.begin_stage();
  e.copy(0, 0, 1, 1, 1);
  e.copy(1, 0, 0, 1, 1);
  e.end_stage();
  EXPECT_EQ(e.block(1, 1), 100u);
  EXPECT_EQ(e.block(0, 1), 200u);
}

TEST(Engine, OverlappingLocalRotationWithinStage) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 1, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data, 64, 4);
  for (int b = 0; b < 4; ++b) e.set_block(0, b, 10u + b);
  // Rotate by one using simultaneous per-block copies.
  e.begin_stage();
  for (int b = 0; b < 4; ++b) e.copy(0, b, 0, (b + 1) % 4, 1);
  e.end_stage();
  for (int b = 0; b < 4; ++b) EXPECT_EQ(e.block(0, (b + 1) % 4), 10u + b);
}

TEST(Engine, CombineXorsTags) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  e.set_block(0, 0, 0b1100u);
  e.set_block(1, 0, 0b1010u);
  e.begin_stage();
  e.combine(0, 0, 1, 0, 1);
  e.combine(1, 0, 0, 0, 1);
  e.end_stage();
  EXPECT_EQ(e.block(0, 0), 0b0110u);
  EXPECT_EQ(e.block(1, 0), 0b0110u);
}

TEST(Engine, TimeAccumulatesAcrossStages) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  e.begin_stage();
  e.copy(0, 0, 8, 0, 1);
  const Usec s1 = e.end_stage();
  EXPECT_GT(s1, 0.0);
  e.begin_stage();
  e.copy(0, 0, 1, 0, 1);
  const Usec s2 = e.end_stage();
  EXPECT_DOUBLE_EQ(e.total(), s1 + s2);
}

TEST(Engine, StageCostIsMaxOfTransfers) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  e.begin_stage();
  e.copy(0, 0, 1, 0, 1);  // fast shm
  e.end_stage();
  const Usec shm_only = e.total();

  Engine e2 = make_engine(c, ExecMode::Timed);
  e2.begin_stage();
  e2.copy(0, 0, 1, 0, 1);
  e2.copy(2, 0, 10, 0, 1);  // slower network transfer dominates
  e2.end_stage();
  EXPECT_GT(e2.total(), shm_only);
}

TEST(Engine, RepeatLastStage) {
  const Machine m = Machine::gpc(2);
  const Communicator c(m, make_layout(m, 16, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  e.begin_stage();
  e.copy(0, 0, 8, 0, 1);
  const Usec s = e.end_stage();
  e.repeat_last_stage(3);
  EXPECT_DOUBLE_EQ(e.total(), 4.0 * s);
}

TEST(Engine, RepeatOnlyInTimedMode) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data);
  e.begin_stage();
  e.copy(0, 0, 1, 0, 1);
  e.end_stage();
  EXPECT_THROW(e.repeat_last_stage(1), Error);
}

/// Each transfer event with the copies it carried.
class TransferCopies final : public trace::TraceSink {
 public:
  struct Entry {
    trace::TransferEvent transfer;
    std::vector<trace::Copy> copies;
  };
  void on_transfer(const trace::TransferEvent& e) override {
    entries.push_back({e, {e.copies.begin(), e.copies.end()}});
    entries.back().transfer.copies = {};
  }
  std::vector<Entry> entries;
};

TEST(Engine, LocalCopiesAreGroupedByRankInSubmissionOrder) {
  // Local copies for ranks 2, 0 and 2 beside one remote copy: no table
  // schedule submits local copies out of rank order or mixes them with
  // remote ones in a stage.
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 4, LayoutSpec{}));
  const trace::Copy first{0, 2, 2, 0, 4, 2, 128, false};
  const trace::Copy second{0, 0, 0, 1, 5, 1, 64, false};
  const trace::Copy third{0, 2, 2, 2, 6, 1, 64, true};
  const trace::Copy remote{0, 1, 3, 0, 7, 1, 64, false};
  TransferCopies events;
  trace::Tracer recorder;
  trace::TeeSink tee({&events, &recorder});
  Usec cost = 0.0;
  {
    obs::Install traced(&tee);
    Engine e = make_engine(c, ExecMode::Data);
    e.begin_stage();
    for (const trace::Copy& cp : {first, second, third, remote}) {
      if (cp.combining)
        e.combine(cp.src, cp.src_off, cp.dst, cp.dst_off, cp.nblocks);
      else
        e.copy(cp.src, cp.src_off, cp.dst, cp.dst_off, cp.nblocks);
    }
    cost = e.end_stage();
  }

  ASSERT_EQ(events.entries.size(), 3u);
  const auto& r0 = events.entries[0];
  EXPECT_EQ(r0.transfer.channel, trace::Channel::Local);
  EXPECT_EQ(r0.transfer.src_rank, 0);
  EXPECT_EQ(r0.transfer.bytes, 64);
  EXPECT_EQ(r0.copies, std::vector<trace::Copy>({second}));
  const auto& r2 = events.entries[1];
  EXPECT_EQ(r2.transfer.channel, trace::Channel::Local);
  EXPECT_EQ(r2.transfer.src_rank, 2);
  EXPECT_EQ(r2.transfer.bytes, 192);
  EXPECT_EQ(r2.copies, std::vector<trace::Copy>({first, third}));
  const auto& net = events.entries[2];
  EXPECT_NE(net.transfer.channel, trace::Channel::Local);
  EXPECT_EQ(net.transfer.src_rank, 1);
  EXPECT_EQ(net.transfer.dst_rank, 3);
  EXPECT_EQ(net.copies, std::vector<trace::Copy>({remote}));

  // The stage cost the engine priced before it kept its local copies in a
  // list: a sweep over every rank's byte total.
  CostModel model(m, CostConfig{});
  model.begin_stage();
  model.add_transfer(c.core_of(1), c.core_of(3), 64);
  Usec expected = model.finish_stage();
  std::vector<Usec> local_bytes(4, 0.0);
  for (const trace::Copy& cp : {first, second, third})
    local_bytes[cp.src] += static_cast<double>(cp.bytes);
  for (Rank r = 0; r < 4; ++r)
    if (local_bytes[r] > 0.0)
      expected = std::max(
          expected, model.local_copy_cost(static_cast<Bytes>(local_bytes[r])));
  EXPECT_EQ(cost, expected);

  // The record lists the copies grouped by transfer, and its local bytes
  // still sum to each rank's priced Local transfer.
  const trace::ScheduleRecord rec = recorder.take();
  EXPECT_EQ(rec.copies,
            std::vector<trace::Copy>({second, first, third, remote}));
  analyze::Contract contract;
  contract.name = "grouping";
  contract.num_ranks = 4;
  contract.buf_blocks = 8;
  contract.num_origins = 1;
  contract.expected.assign(4 * 8, -1);
  const analyze::Certificate cert = analyze::analyze(rec, m, contract);
  EXPECT_FALSE(cert.has(analyze::Property::ByteConservation))
      << cert.format();
}

TEST(Engine, LocalPermuteAllMovesEveryBuffer) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data, 64, 3);
  for (Rank r = 0; r < 2; ++r)
    for (int b = 0; b < 3; ++b) e.set_block(r, b, r * 10 + b);
  e.local_permute_all({2, 0, 1});  // block b -> position dst[b]
  for (Rank r = 0; r < 2; ++r) {
    EXPECT_EQ(e.block(r, 2), r * 10 + 0u);
    EXPECT_EQ(e.block(r, 0), r * 10 + 1u);
    EXPECT_EQ(e.block(r, 1), r * 10 + 2u);
  }
}

TEST(Engine, LocalPermuteChargesOnlyMovedBlocks) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed, 64, 4);
  e.local_permute_all({0, 1, 2, 3});  // identity: free
  EXPECT_DOUBLE_EQ(e.total(), 0.0);
  e.local_permute_all({1, 0, 2, 3});  // two blocks move
  EXPECT_GT(e.total(), 0.0);
}

TEST(Engine, LocalPermuteRejectsNonPermutation) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed, 64, 2);
  EXPECT_THROW(e.local_permute_all({0, 0}), Error);
  EXPECT_THROW(e.local_permute_all({0}), Error);
}

TEST(Engine, BoundsChecks) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Data, 64, 4);
  EXPECT_THROW(e.copy(0, 0, 1, 0, 1), Error);  // no stage open
  e.begin_stage();
  EXPECT_THROW(e.copy(0, 3, 1, 0, 2), Error);  // src overflow
  EXPECT_THROW(e.copy(0, 0, 1, 4, 1), Error);  // dst overflow
  EXPECT_THROW(e.copy(0, 0, 2, 0, 1), Error);  // bad rank
  EXPECT_THROW(e.copy(0, 0, 1, 0, 0), Error);  // zero blocks
  e.copy(0, 0, 1, 0, 1);  // keep the stage non-empty for slow-check builds
  e.end_stage();
  EXPECT_THROW(e.block(0, 9), Error);
}

TEST(Engine, TimedModeRejectsBlockReads) {
  const Machine m = Machine::gpc(1);
  const Communicator c(m, make_layout(m, 2, LayoutSpec{}));
  Engine e = make_engine(c, ExecMode::Timed);
  e.set_block(0, 0, 1u);  // silently ignored
  EXPECT_THROW(e.block(0, 0), Error);
}

}  // namespace
}  // namespace tarr::simmpi
