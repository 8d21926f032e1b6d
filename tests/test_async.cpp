// The asynchronous model replays a traced stage-synchronous run on per-rank
// clocks (simmpi/async.hpp).  It replaced an engine with its own isend/recv
// API and two hand-written allgather generators; that code, copied here as
// it was, is the oracle: over a grid of machines, layouts, sizes and
// contention settings, and on an RMH-reordered communicator, the replay of
// the collective's record must reproduce its makespans bit for bit.  The
// clock rules are pinned one by one on hand-built records, and the
// records the model has no rule for are refused.

#include "simmpi/async.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "collectives/allgather.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "core/framework.hpp"
#include "prof/obs.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "trace/tracer.hpp"

namespace tarr::simmpi {
namespace {

using collectives::AllgatherAlgo;
using topology::Machine;
using trace::Channel;

namespace old_code {

/// The execution engine the replay replaced, trimmed to what the two
/// generators call.
class AsyncEngine {
 public:
  AsyncEngine(const Communicator& comm, const CostConfig& cfg,
              Usec send_overhead = 0.2)
      : comm_(&comm),
        cfg_(cfg),
        send_overhead_(send_overhead),
        clock_(comm.size(), 0.0) {}

  const Communicator& comm() const { return *comm_; }

  Usec isend(Rank src, Rank dst, Bytes bytes) {
    const Usec cost =
        channel_cost(comm_->core_of(src), comm_->core_of(dst), bytes);
    const Usec depart = clock_[src];
    clock_[src] = depart + send_overhead_ +
                  static_cast<double>(bytes) *
                      (comm_->node_of(src) == comm_->node_of(dst)
                           ? cfg_.beta_shm_pair
                           : cfg_.beta_net);
    return depart + cost;
  }

  void recv(Rank rank, Usec arrival) {
    clock_[rank] = std::max(clock_[rank], arrival);
  }

  Usec makespan() const {
    return *std::max_element(clock_.begin(), clock_.end());
  }

 private:
  Usec channel_cost(CoreId src, CoreId dst, Bytes bytes) const {
    const auto& m = comm_->machine();
    const NodeId na = m.node_of_core(src);
    const NodeId nb = m.node_of_core(dst);
    const double b = static_cast<double>(bytes);
    if (na == nb) {
      const SocketId sa = m.socket_of_core(src);
      const SocketId sb = m.socket_of_core(dst);
      if (sa == sb) {
        const bool same_complex =
            m.complex_of_core(src) == m.complex_of_core(dst);
        return (same_complex ? cfg_.alpha_shm_complex
                             : cfg_.alpha_shm_socket) +
               b * (same_complex ? cfg_.beta_shm_complex_pair
                                 : cfg_.beta_shm_pair);
      }
      return cfg_.alpha_shm_cross + b * cfg_.beta_shm_pair;
    }
    const int hops = m.router().hops(na, nb);
    return cfg_.alpha_net + cfg_.alpha_hop * hops + b * cfg_.beta_net;
  }

  const Communicator* comm_;
  CostConfig cfg_;
  Usec send_overhead_;
  std::vector<Usec> clock_;
};

Usec run_allgather_ring_async(AsyncEngine& eng, Bytes msg) {
  const int p = eng.comm().size();
  const Usec before = eng.makespan();
  if (p < 2) return 0.0;
  std::vector<Usec> arrival(p);
  for (int s = 0; s < p - 1; ++s) {
    for (Rank j = 0; j < p; ++j)
      arrival[(j + 1) % p] = eng.isend(j, (j + 1) % p, msg);
    for (Rank j = 0; j < p; ++j) eng.recv(j, arrival[j]);
  }
  return eng.makespan() - before;
}

Usec run_allgather_rd_async(AsyncEngine& eng, Bytes msg) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "run_allgather_rd_async: needs 2^k ranks");
  const Usec before = eng.makespan();
  for (int dist = 1; dist < p; dist <<= 1) {
    std::vector<Usec> arrival(p, 0.0);
    for (Rank j = 0; j < p; ++j)
      arrival[j ^ dist] = eng.isend(j, j ^ dist, msg * dist);
    for (Rank j = 0; j < p; ++j) eng.recv(j, arrival[j]);
  }
  return eng.makespan() - before;
}

}  // namespace old_code

/// The record of one stage-synchronous allgather run (`oldrank` empty: not
/// reordered).
trace::ScheduleRecord record_allgather(
    const Communicator& comm, const CostConfig& cfg, AllgatherAlgo algo,
    Bytes msg, collectives::OrderFix fix = collectives::OrderFix::None,
    const std::vector<Rank>& oldrank = {}) {
  trace::Tracer tracer;
  obs::Install traced(&tracer);
  Engine eng(comm, cfg, ExecMode::Timed, msg, comm.size());
  const collectives::AllgatherOptions opts{algo, fix};
  if (oldrank.empty())
    collectives::run_allgather(eng, opts);
  else
    collectives::run_allgather(eng, opts, oldrank);
  return tracer.take();
}

/// The replay of the allgather's record against the old generator.
void expect_replay_matches_old_engine(const Communicator& comm,
                                      const CostConfig& cfg,
                                      AllgatherAlgo algo, Bytes msg) {
  const Usec replay = async_makespan(
      record_allgather(comm, cfg, algo, msg), comm.size(), cfg);
  old_code::AsyncEngine eng(comm, cfg);
  const Usec old = algo == AllgatherAlgo::Ring
                       ? old_code::run_allgather_ring_async(eng, msg)
                       : old_code::run_allgather_rd_async(eng, msg);
  EXPECT_EQ(replay, old) << collectives::to_string(algo) << " p "
                         << comm.size() << " msg " << msg << " contention "
                         << cfg.model_contention;
}

TEST(AsyncOracle, ReplayMatchesTheOldEngineBitForBit) {
  // GPC 1-64 nodes, 2-512 ranks (full and partly filled machines), the
  // four layouts, contention on and off, 1 B to 1 MiB: 12 x 4 x 2 x 5 x 2 =
  // 960 configurations.
  struct Shape {
    int nodes, procs;
  };
  int runs = 0;
  for (const Shape s :
       {Shape{1, 2}, Shape{1, 4}, Shape{1, 8}, Shape{2, 8}, Shape{2, 16},
        Shape{4, 32}, Shape{8, 64}, Shape{16, 64}, Shape{16, 128},
        Shape{32, 256}, Shape{64, 256}, Shape{64, 512}}) {
    const Machine m = Machine::gpc(s.nodes);
    for (const LayoutSpec& spec : all_layouts()) {
      const Communicator comm(m, make_layout(m, s.procs, spec));
      for (const bool contention : {true, false}) {
        CostConfig cfg;
        cfg.model_contention = contention;
        for (const Bytes msg :
             {Bytes(1), Bytes(64), Bytes(4096), Bytes(65536), Bytes(1 << 20)})
          for (const AllgatherAlgo algo :
               {AllgatherAlgo::Ring, AllgatherAlgo::RecursiveDoubling}) {
            expect_replay_matches_old_engine(comm, cfg, algo, msg);
            ++runs;
          }
      }
    }
  }
  EXPECT_EQ(runs, 960);
}

TEST(AsyncOracle, ReplayMatchesOnAnRmhReorderedCommunicator) {
  const Machine m = Machine::gpc(8);
  const Communicator cyclic(
      m, make_layout(m, 64, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(cyclic, mapping::Pattern::Ring);
  for (const bool contention : {true, false}) {
    CostConfig cfg;
    cfg.model_contention = contention;
    for (const Bytes msg : {Bytes(64), Bytes(4096), Bytes(65536)})
      for (const AllgatherAlgo algo :
           {AllgatherAlgo::Ring, AllgatherAlgo::RecursiveDoubling})
        expect_replay_matches_old_engine(rc.comm, cfg, algo, msg);
  }
}

/// A hand-built record, fed through the Tracer as an engine would.
class Records {
 public:
  void transfer(Rank src, Rank dst, Bytes bytes, Channel channel,
                Usec uncontended, int attempts = 1) {
    tracer_.on_transfer(trace::TransferEvent{.stage = stage_,
                                             .src_rank = src,
                                             .dst_rank = dst,
                                             .bytes = bytes,
                                             .channel = channel,
                                             .attempts = attempts,
                                             .uncontended = uncontended});
  }
  void end_stage() { tracer_.on_stage(trace::StageEvent{.stage = stage_++}); }
  void repeat_last(int extra) {
    tracer_.on_stage(trace::StageEvent{.stage = stage_ - 1, .repeats = extra});
  }
  const trace::ScheduleRecord& record() const { return tracer_.record(); }

 private:
  trace::Tracer tracer_;
  int stage_ = 0;
};

const CostConfig kCfg{};

TEST(AsyncReplay, AnEmptyRecordCostsNothing) {
  EXPECT_EQ(async_makespan(trace::ScheduleRecord{}, 4, kCfg), 0.0);
  EXPECT_EQ(async_makespan(trace::ScheduleRecord{}, 0, kCfg), 0.0);
}

TEST(AsyncReplay, TheReceiverClockRisesToTheArrival) {
  // Rank 1 receives at 0 + 10; its own send departs then and lands on rank
  // 2 one microsecond later.  The senders are released long before.
  Records r;
  r.transfer(0, 1, 64, Channel::Network, 10.0);
  r.end_stage();
  r.transfer(1, 2, 64, Channel::Network, 1.0);
  r.end_stage();
  EXPECT_EQ(async_makespan(r.record(), 3, kCfg), 11.0);
  // A receiver already past the arrival keeps its clock.
  r.transfer(0, 2, 64, Channel::Network, 2.0);
  r.end_stage();
  EXPECT_EQ(async_makespan(r.record(), 3, kCfg), 11.0);
}

TEST(AsyncReplay, SendsSerializeAtTheSender) {
  // Each send departs once the ones before it have held their sender for
  // the overhead plus the payload's serialization; the stage's arrivals
  // follow all of its departures.
  const Bytes b = 1 << 20;
  const Usec payload = static_cast<double>(b) * kCfg.beta_net;
  Records r;
  for (const Rank dst : {1, 2, 3})
    r.transfer(0, dst, b, Channel::Network, 1000.0);
  r.end_stage();
  const Usec third_departs =
      0.0 + kAsyncSendOverhead + payload + kAsyncSendOverhead + payload;
  EXPECT_EQ(async_makespan(r.record(), 4, kCfg), third_departs + 1000.0);
}

TEST(AsyncReplay, OnNodeSendsSerializeAtTheSharedMemoryRate) {
  // Every on-node channel holds the sender at beta_shm_pair, the network
  // at beta_net; the arrival itself is the record's uncontended cost.
  const Bytes b = 1 << 20;
  for (const Channel first :
       {Channel::SameComplex, Channel::SameSocket, Channel::CrossSocket,
        Channel::Network}) {
    const double beta =
        first == Channel::Network ? kCfg.beta_net : kCfg.beta_shm_pair;
    Records r;
    r.transfer(0, 1, b, first, 1.0);
    r.transfer(0, 2, 0, Channel::Network, 5000.0);
    r.end_stage();
    EXPECT_EQ(async_makespan(r.record(), 3, kCfg),
              0.0 + kAsyncSendOverhead + static_cast<double>(b) * beta +
                  5000.0)
        << trace::to_string(first);
  }
}

TEST(AsyncReplay, ARepeatEntryReplaysItsStageOncePerRepeat) {
  // A pairwise exchange executed 1 + 3 times: each execution waits for the
  // partner's data.
  Records r;
  r.transfer(0, 1, 64, Channel::Network, 10.0);
  r.transfer(1, 0, 64, Channel::Network, 10.0);
  r.end_stage();
  r.repeat_last(3);
  EXPECT_EQ(async_makespan(r.record(), 2, kCfg), 40.0);
}

TEST(AsyncReplay, RefusesWhatTheModelHasNoRuleFor) {
  // Bruck's final rotation is a Local transfer on every rank.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 12, LayoutSpec{}));
  const auto bruck =
      record_allgather(comm, kCfg, AllgatherAlgo::Bruck, 1024);
  ASSERT_TRUE(std::any_of(bruck.transfers.begin(), bruck.transfers.end(),
                          [](const trace::RecordedTransfer& t) {
                            return t.channel == Channel::Local;
                          }));
  EXPECT_THROW(async_makespan(bruck, 12, kCfg), Error);

  // §V-B's end shuffle is out-of-stage time.
  const Machine m8 = Machine::gpc(8);
  const Communicator cyclic(
      m8,
      make_layout(m8, 64, LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  core::ReorderFramework fw(m8);
  const auto rc = fw.reorder(cyclic, mapping::Pattern::RecursiveDoubling);
  const auto shuffled =
      record_allgather(rc.comm, kCfg, AllgatherAlgo::RecursiveDoubling, 1024,
                       collectives::OrderFix::EndShuffle, rc.oldrank);
  ASSERT_FALSE(shuffled.extras.empty());
  EXPECT_THROW(async_makespan(shuffled, 64, kCfg), Error);

  Records retransmitted;
  retransmitted.transfer(0, 1, 64, Channel::Network, 1.0, /*attempts=*/2);
  retransmitted.end_stage();
  EXPECT_THROW(async_makespan(retransmitted.record(), 2, kCfg), Error);

  Records out_of_range;
  out_of_range.transfer(0, 2, 64, Channel::Network, 1.0);
  out_of_range.end_stage();
  EXPECT_EQ(async_makespan(out_of_range.record(), 3, kCfg), 1.0);
  EXPECT_THROW(async_makespan(out_of_range.record(), 2, kCfg), Error);
  Records negative;
  negative.transfer(-1, 0, 64, Channel::Network, 1.0);
  negative.end_stage();
  EXPECT_THROW(async_makespan(negative.record(), 2, kCfg), Error);
  EXPECT_THROW(async_makespan(trace::ScheduleRecord{}, -1, kCfg), Error);
}

TEST(AsyncModel, RingPipelinesBelowStageSynchronousBound) {
  // The whole point of the async model: the ring's makespan is below the
  // stage-synchronous sum (no global barrier per step), but not absurdly
  // so (>= the per-rank serial work).
  const Machine m = Machine::gpc(8);
  const int p = 64;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  CostConfig no_contention;
  no_contention.model_contention = false;
  const auto record =
      record_allgather(comm, no_contention, AllgatherAlgo::Ring, 4096);
  const Usec async = async_makespan(record, p, no_contention);
  EXPECT_LT(async, record.total);
  EXPECT_GT(async, 0.25 * record.total);
}

TEST(AsyncModel, RdMatchesStageSynchronousWithoutContention) {
  // Recursive doubling is globally synchronized: the async makespan must
  // land close to the stage-synchronous total when contention is off
  // (differences: send overhead and sender-side serialization).
  const Machine m = Machine::gpc(4);
  const int p = 32;
  const Communicator comm(m, make_layout(m, p, LayoutSpec{}));
  CostConfig no_contention;
  no_contention.model_contention = false;
  const auto record = record_allgather(
      comm, no_contention, AllgatherAlgo::RecursiveDoubling, 2048);
  const Usec async = async_makespan(record, p, no_contention);
  EXPECT_NEAR(async, record.total, 0.5 * record.total);
  EXPECT_GE(async, record.total * 0.9);  // sync pattern cannot be much faster
}

TEST(AsyncModel, ReorderedCommunicatorReducesRingMakespan) {
  // The async model agrees with the paper's direction: RMH's compact ring
  // beats a cyclic placement's ring.
  const Machine m = Machine::gpc(8);
  const int p = 64;
  const Communicator cyclic(
      m, make_layout(m, p,
                     LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch}));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(cyclic, mapping::Pattern::Ring);
  const Bytes msg = 64 * 1024;
  EXPECT_LT(async_makespan(
                record_allgather(rc.comm, kCfg, AllgatherAlgo::Ring, msg), p,
                kCfg),
            async_makespan(
                record_allgather(cyclic, kCfg, AllgatherAlgo::Ring, msg), p,
                kCfg));
}

}  // namespace
}  // namespace tarr::simmpi
