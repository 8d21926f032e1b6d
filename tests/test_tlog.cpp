// tarr::tlog: the bounded-memory streaming binary trace log.  The load-
// bearing contracts, in order: a `.tlog` round-trip rebuilds the
// ScheduleRecord byte-identically to live recording (EXPECT_EQ on every
// field, bit-exact total); replay into a Tracer reproduces its timeline
// JSON and metrics CSV byte-for-byte; reader-side filters deliver exactly
// what they select; the footer index counts every stored event and lets a
// reader skip whole blocks; a failed write surfaces at finish(), not from
// an event handler; corrupt input of any shape throws a structured
// tarr::Error instead of crashing; and writer memory stays O(block), not
// O(events) — asserted with the tarr::prof counting allocator (this binary
// links tarr_prof_memhook, like test_prof).

#include "tlog/reader.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/hierarchical.hpp"
#include "collectives/schedules.hpp"
#include "common/permutation.hpp"
#include "prof/obs.hpp"
#include "prof/prof.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "tlog/writer.hpp"
#include "trace/metrics.hpp"
#include "trace/record.hpp"
#include "trace/tracer.hpp"

namespace tarr::tlog {
namespace {

using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::make_layout;
using topology::Machine;

std::string tmp_path(const std::string& name) {
  return testing::TempDir() + "tarr_tlog_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  EXPECT_TRUE(f.good()) << path;
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(f.good()) << path;
  f.write(body.data(), static_cast<std::streamsize>(body.size()));
}

/// The schedule shapes the acceptance criteria call out.  Each runner
/// drives one engine run against `sink` and returns Engine::total().
struct Scenario {
  const char* name;
  Usec (*run)(trace::TraceSink* sink);
};

Usec run_ring(trace::TraceSink* sink) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(16));
  return eng.total();
}

Usec run_rd_shuffled(trace::TraceSink* sink) {
  // EndShuffle adds a "local-shuffle" TimeEvent carrying its permutation,
  // covering the out-of-stage record kinds.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  std::vector<Rank> rotated(16);
  for (int i = 0; i < 16; ++i) rotated[i] = (i + 1) % 16;
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  collectives::run_allgather(eng,
                             {collectives::AllgatherAlgo::RecursiveDoubling,
                              collectives::OrderFix::EndShuffle},
                             rotated);
  return eng.total();
}

Usec run_hierarchical(trace::TraceSink* sink) {
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  collectives::HierAllgatherOptions opts{collectives::AllgatherAlgo::Ring,
                                         collectives::IntraAlgo::Binomial,
                                         collectives::OrderFix::None};
  collectives::run_hier_allgather(eng, opts, identity_permutation(p));
  return eng.total();
}

Usec run_transient_faults(trace::TraceSink* sink) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;
  obs::Install traced(sink);
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_transient_faults(faults);
  collectives::run_allgather(
      eng,
      {collectives::AllgatherAlgo::RecursiveDoubling,
       collectives::OrderFix::None},
      identity_permutation(16));
  return eng.total();
}

const Scenario kScenarios[] = {
    {"ring", run_ring},
    {"rd_shuffled", run_rd_shuffled},
    {"hierarchical", run_hierarchical},
    {"transient", run_transient_faults},
};

/// Record `scenario` twice — once live into a Tracer, once through a
/// TlogSink — and return (live record, tlog path).
std::pair<trace::ScheduleRecord, std::string> record_both(
    const Scenario& scenario, TlogOptions opts = TlogOptions{}) {
  trace::Tracer recorder;
  const Usec live_total = scenario.run(&recorder);
  const std::string path = tmp_path(std::string(scenario.name) + ".tlog");
  {
    TlogSink sink(path, opts);
    const Usec tlog_total = scenario.run(&sink);
    sink.finish();
    EXPECT_EQ(live_total, tlog_total);  // sinks never perturb pricing
  }
  trace::ScheduleRecord rec = recorder.take();
  EXPECT_EQ(rec.total, live_total);
  return {std::move(rec), path};
}

void expect_records_identical(const trace::ScheduleRecord& a,
                              const trace::ScheduleRecord& b) {
  // Bit-exact everywhere: EXPECT_EQ on every field including doubles.
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (std::size_t i = 0; i < a.transfers.size(); ++i) {
    const auto& x = a.transfers[i];
    const auto& y = b.transfers[i];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.src_core, y.src_core);
    EXPECT_EQ(x.dst_core, y.dst_core);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.channel, y.channel);
    EXPECT_EQ(x.contention, y.contention);
    EXPECT_EQ(x.attempts, y.attempts);
    EXPECT_EQ(x.duration, y.duration);
    EXPECT_EQ(x.uncontended, y.uncontended);
  }
  ASSERT_EQ(a.copies.size(), b.copies.size());
  for (std::size_t i = 0; i < a.copies.size(); ++i) {
    const auto& x = a.copies[i];
    const auto& y = b.copies[i];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.src, y.src);
    EXPECT_EQ(x.dst, y.dst);
    EXPECT_EQ(x.src_off, y.src_off);
    EXPECT_EQ(x.dst_off, y.dst_off);
    EXPECT_EQ(x.nblocks, y.nblocks);
    EXPECT_EQ(x.bytes, y.bytes);
    EXPECT_EQ(x.combining, y.combining);
  }
  ASSERT_EQ(a.loads.size(), b.loads.size());
  for (std::size_t i = 0; i < a.loads.size(); ++i) {
    EXPECT_EQ(a.loads[i].qpi, b.loads[i].qpi);
    EXPECT_EQ(a.loads[i].id, b.loads[i].id);
    EXPECT_EQ(a.loads[i].dir, b.loads[i].dir);
    EXPECT_EQ(a.loads[i].bytes, b.loads[i].bytes);
  }
  ASSERT_EQ(a.stages.size(), b.stages.size());
  for (std::size_t i = 0; i < a.stages.size(); ++i) {
    const auto& x = a.stages[i];
    const auto& y = b.stages[i];
    EXPECT_EQ(x.stage, y.stage);
    EXPECT_EQ(x.repeats, y.repeats);
    EXPECT_EQ(x.start, y.start);
    EXPECT_EQ(x.duration, y.duration);
    EXPECT_EQ(x.retry_wait, y.retry_wait);
    EXPECT_EQ(x.first_transfer, y.first_transfer);
    EXPECT_EQ(x.num_transfers, y.num_transfers);
    EXPECT_EQ(x.first_copy, y.first_copy);
    EXPECT_EQ(x.num_copies, y.num_copies);
    EXPECT_EQ(x.first_load, y.first_load);
    EXPECT_EQ(x.num_loads, y.num_loads);
  }
  ASSERT_EQ(a.extras.size(), b.extras.size());
  for (std::size_t i = 0; i < a.extras.size(); ++i) {
    EXPECT_EQ(a.extras[i].what, b.extras[i].what);
    EXPECT_EQ(a.extras[i].start, b.extras[i].start);
    EXPECT_EQ(a.extras[i].duration, b.extras[i].duration);
    EXPECT_EQ(a.extras[i].dst_of_block, b.extras[i].dst_of_block);
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].kind, b.events[i].kind);
    EXPECT_EQ(a.events[i].index, b.events[i].index);
  }
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t i = 0; i < a.phases.size(); ++i) {
    EXPECT_EQ(a.phases[i].name, b.phases[i].name);
    EXPECT_EQ(a.phases[i].start, b.phases[i].start);
    EXPECT_EQ(a.phases[i].duration, b.phases[i].duration);
  }
  EXPECT_EQ(a.load_totals(), b.load_totals());
  EXPECT_EQ(a.total, b.total);  // bit-exact, the report invariant
}

// ---------------------------------------------------------------------------
// Round-trip exactness.

TEST(Roundtrip, RebuildsScheduleRecordByteIdentically) {
  for (const Scenario& scenario : kScenarios) {
    SCOPED_TRACE(scenario.name);
    const auto [live, path] = record_both(scenario);
    const trace::ScheduleRecord replayed = read_record(path);
    expect_records_identical(live, replayed);
  }
}

TEST(Roundtrip, EveryTableScheduleRoundTripsInDataMode) {
  // Data mode records every stage with its copies, local ones included.
  const Machine m = Machine::gpc(2);
  const int p = m.total_cores();
  const std::string path = tmp_path("schedule.tlog");
  for (const collectives::Schedule& sched : collectives::schedules()) {
    SCOPED_TRACE(sched.name);
    const Communicator comm(
        m, make_layout(m, p,
                       sched.hierarchical
                           ? simmpi::LayoutSpec{}
                           : simmpi::LayoutSpec{simmpi::NodeOrder::Cyclic,
                                                simmpi::SocketOrder::Bunch}));
    const auto run = [&](trace::TraceSink* sink) {
      obs::Install traced(sink);
      Engine eng(comm, CostConfig{}, ExecMode::Data, 64, sched.buf_blocks(p));
      (void)sched.run(eng, identity_permutation(p));
    };
    trace::Tracer live;
    run(&live);
    {
      TlogSink sink(path);
      run(&sink);
      sink.finish();
    }
    EXPECT_FALSE(live.record().copies.empty());
    EXPECT_TRUE(live.record() == read_record(path));
  }
}

TEST(Roundtrip, SmallBlocksForceFlushesAndStillRoundTrip) {
  // A 512-byte block turns one run into many blocks, exercising the
  // delta-context resets at every boundary.
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[2], opts);
  const FileInfo info = read_info(path);
  EXPECT_GT(info.blocks.size(), 3u);  // 2,051 bytes in 4 blocks
  for (std::size_t b = 0; b + 1 < info.blocks.size(); ++b)
    EXPECT_GE(info.blocks[b].payload_len, opts.block_bytes);  // flushed full
  expect_records_identical(live, read_record(path));
}

TEST(Roundtrip, RepeatCompressedSliceSharingSurvives) {
  // The ring in Timed mode repeat-compresses its identical stages: the
  // repeats > 1 entries share the transfer/copy/load slices of the stage
  // they repeat.  Rebuilding from a .tlog must reproduce exactly that
  // aliasing — same slice indices, no duplicated rows.
  const auto [live, path] = record_both(kScenarios[0]);
  bool saw_repeat = false;
  for (const auto& s : live.stages) saw_repeat |= s.repeats > 1;
  ASSERT_TRUE(saw_repeat) << "scenario no longer repeat-compresses";
  const trace::ScheduleRecord replayed = read_record(path);
  for (std::size_t i = 0; i < live.stages.size(); ++i) {
    if (live.stages[i].repeats <= 1) continue;
    const auto& x = live.stages[i];
    const auto& y = replayed.stages[i];
    // The compressed entry references an earlier stage's slices.
    EXPECT_EQ(x.first_transfer, y.first_transfer);
    EXPECT_EQ(x.num_transfers, y.num_transfers);
    bool aliases = false;
    for (std::size_t j = 0; j < i; ++j)
      aliases |= replayed.stages[j].first_transfer == y.first_transfer &&
                 replayed.stages[j].repeats == 1;
    EXPECT_TRUE(aliases) << "stage " << i << " does not share a slice";
  }
  EXPECT_EQ(live.transfers.size(), replayed.transfers.size());
}

TEST(Roundtrip, TracerReplayReproducesTimelineAndMetrics) {
  // Count/Observe capture makes the .tlog a lossless TraceSink stream, so
  // a replayed Tracer must emit byte-identical JSON and CSV.
  trace::Tracer live;
  const std::string path = tmp_path("tracer.tlog");
  {
    TlogSink sink(path);
    trace::TeeSink tee({&live, &sink});
    run_hierarchical(&tee);
    sink.finish();
  }
  trace::Tracer replayed;
  replay(path, replayed);
  EXPECT_EQ(live.timeline_json(), replayed.timeline_json());
  EXPECT_EQ(live.metrics().csv(), replayed.metrics().csv());
}

TEST(Roundtrip, SameRunWritesByteIdenticalFiles) {
  const std::string p1 = tmp_path("det1.tlog");
  const std::string p2 = tmp_path("det2.tlog");
  for (const std::string& p : {p1, p2}) {
    TlogSink sink(p);
    run_ring(&sink);
    sink.finish();
  }
  EXPECT_EQ(slurp(p1), slurp(p2));
}

// ---------------------------------------------------------------------------
// Bookkeeping and reader-side filters.

TEST(Bookkeeping, StoredCountsEqualTheBlockIndexAndTheReplay) {
  TlogOptions opts;
  opts.block_bytes = 512;
  const std::string path = tmp_path("totals.tlog");
  TlogSink sink(path, opts);
  run_rd_shuffled(&sink);
  sink.finish();
  const FileInfo info = read_info(path);
  ASSERT_GT(info.blocks.size(), 1u);
  std::array<long long, kNumEventKinds> indexed{};
  for (const BlockInfo& b : info.blocks)
    for (int k = 0; k < kNumEventKinds; ++k) indexed[k] += b.stored[k];
  EXPECT_EQ(sink.totals().stored, indexed);
  EXPECT_EQ(info.stored, indexed);
  trace::TraceSink null_sink;
  EXPECT_EQ(replay(path, null_sink).delivered, indexed);
}

TEST(Filter, StageWindowKeepsExactlyTheWindow) {
  const auto [live, path] = record_both(kScenarios[1]);
  EventFilter filter;
  filter.min_stage = 2;
  filter.max_stage = 4;
  trace::Tracer recorder;
  const ReplayStats stats = replay(path, recorder, filter);
  const trace::ScheduleRecord rec = recorder.take();
  for (const auto& s : rec.stages) {
    EXPECT_GE(s.stage, 2);
    EXPECT_LE(s.stage, 4);
  }
  for (const auto& t : rec.transfers) {
    EXPECT_GE(t.stage, 2);
    EXPECT_LE(t.stage, 4);
  }
  EXPECT_FALSE(rec.stages.empty());
  // Loads ride on their stage: the replayed loads are exactly those of the
  // window's stages, in stage order.
  std::vector<trace::Load> window_loads;
  long long window_stages = 0;
  for (const auto& s : live.stages) {
    if (s.stage < 2 || s.stage > 4) continue;
    ++window_stages;
    const auto loads = live.loads_of(s);
    window_loads.insert(window_loads.end(), loads.begin(), loads.end());
  }
  EXPECT_FALSE(window_loads.empty());
  EXPECT_EQ(rec.loads, window_loads);
  // Copies ride on their transfer: the replayed copies are exactly those
  // of the window's stages.
  std::vector<trace::Copy> window_copies;
  for (const auto& c : live.copies)
    if (c.stage >= 2 && c.stage <= 4) window_copies.push_back(c);
  EXPECT_FALSE(window_copies.empty());
  EXPECT_EQ(rec.copies, window_copies);
  EXPECT_EQ(stats.delivered[static_cast<int>(EventKind::Stage)],
            window_stages);
}

TEST(Filter, RankWindowMatchesEitherEndpoint) {
  const auto [live, path] = record_both(kScenarios[0]);
  EventFilter filter;
  filter.min_rank = 0;
  filter.max_rank = 3;
  trace::Tracer recorder;
  replay(path, recorder, filter);
  const trace::ScheduleRecord rec = recorder.take();
  ASSERT_FALSE(rec.transfers.empty());
  EXPECT_LT(rec.transfers.size(), live.transfers.size());
  for (const auto& t : rec.transfers)
    EXPECT_TRUE((t.src >= 0 && t.src <= 3) || (t.dst >= 0 && t.dst <= 3))
        << t.src << " -> " << t.dst;
  // Each kept transfer keeps its copies.
  std::vector<trace::Copy> window_copies;
  for (const auto& c : live.copies)
    if ((c.src >= 0 && c.src <= 3) || (c.dst >= 0 && c.dst <= 3))
      window_copies.push_back(c);
  EXPECT_EQ(rec.copies, window_copies);
}

TEST(Filter, ReaderSideFilterSelectsWithoutRewriting) {
  // Write unfiltered once, then narrow at read time.
  const auto [live, path] = record_both(kScenarios[1]);
  EventFilter filter;
  filter.kinds = 1u << static_cast<int>(EventKind::Transfer);
  trace::Tracer recorder;
  const ReplayStats stats = replay(path, recorder, filter);
  EXPECT_EQ(stats.delivered[static_cast<int>(EventKind::Transfer)],
            static_cast<long long>(live.transfers.size()));
  EXPECT_EQ(stats.delivered[static_cast<int>(EventKind::Stage)], 0);
  EXPECT_EQ(stats.delivered_events(),
            stats.delivered[static_cast<int>(EventKind::Transfer)]);
}

// ---------------------------------------------------------------------------
// The footer index and selective decode.

TEST(Index, BlockEntriesDescribeTheFileExactly) {
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[2], opts);
  const FileInfo info = read_info(path);
  ASSERT_GT(info.blocks.size(), 1u);
  long long events = 0;
  std::array<long long, kNumEventKinds> stored{};
  for (const BlockInfo& b : info.blocks) {
    events += b.events;
    for (int k = 0; k < kNumEventKinds; ++k) stored[k] += b.stored[k];
    if (b.has_stage()) {
      EXPECT_LE(b.min_stage, b.max_stage);
    }
  }
  EXPECT_EQ(events, info.stored_events());
  EXPECT_EQ(stored, info.stored);
  // Offsets are strictly increasing and in-bounds.
  for (std::size_t i = 1; i < info.blocks.size(); ++i)
    EXPECT_GT(info.blocks[i].offset, info.blocks[i - 1].offset);
  EXPECT_LT(info.blocks.back().offset + info.blocks.back().payload_len,
            info.file_bytes);
}

TEST(Index, KindMaskSkipsBlocksWithoutDecodingThem) {
  // Force many blocks, then ask only for wall spans (which this scenario
  // never emits through the engine): every block must be skipped.
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[0], opts);
  (void)live;
  EventFilter filter;
  filter.kinds = 1u << static_cast<int>(EventKind::WallSpan);
  trace::TraceSink null_sink;
  const ReplayStats stats = replay(path, null_sink, filter);
  EXPECT_GT(stats.blocks_total, 1);
  EXPECT_EQ(stats.blocks_decoded, 0);
  EXPECT_EQ(stats.blocks_skipped, stats.blocks_total);
  EXPECT_EQ(stats.delivered_events(), 0);
}

TEST(Index, StageWindowSkipsDisjointBlocks) {
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[1], opts);
  (void)live;
  const FileInfo info = read_info(path);
  // Restrict to the very first stage: blocks whose stage range starts
  // later — and carries nothing stage-less — can be skipped outright.
  EventFilter filter;
  filter.kinds = (1u << static_cast<int>(EventKind::Stage)) |
                 (1u << static_cast<int>(EventKind::Transfer));
  filter.max_stage = 0;
  trace::TraceSink null_sink;
  const ReplayStats stats = replay(path, null_sink, filter);
  EXPECT_EQ(stats.blocks_total, static_cast<long long>(info.blocks.size()));
  EXPECT_GT(stats.blocks_skipped, 0);
  EXPECT_LT(stats.blocks_decoded, stats.blocks_total);
  // The decode was still correct: only stage-0 events came out.
  trace::Tracer recorder;
  replay(path, recorder, filter);
  const trace::ScheduleRecord rec = recorder.take();
  for (const auto& s : rec.stages) EXPECT_EQ(s.stage, 0);
  for (const auto& c : rec.copies) EXPECT_EQ(c.stage, 0);
  EXPECT_FALSE(rec.stages.empty());
  EXPECT_FALSE(rec.copies.empty());
}

// ---------------------------------------------------------------------------
// Writer lifecycle.

TEST(Writer, RejectsBadOptionsAndUnwritablePaths) {
  TlogOptions tiny;
  tiny.block_bytes = 16;
  EXPECT_THROW(TlogSink(tmp_path("tiny.tlog"), tiny), Error);
  EXPECT_THROW(TlogSink("/nonexistent-dir/x.tlog"), Error);
}

TEST(Writer, FinishIsIdempotentAndSealsTheFile) {
  const std::string path = tmp_path("sealed.tlog");
  TlogSink sink(path);
  run_ring(&sink);
  sink.finish();
  EXPECT_TRUE(sink.finished());
  sink.finish();  // idempotent
  EXPECT_THROW(sink.on_stage(trace::StageEvent{}), Error);
  EXPECT_THROW(sink.add_count("n", 1.0), Error);
}

TEST(Writer, RejectsACopyThatDisagreesWithItsTransfer) {
  // A copy's stage and endpoints are stored once, on its transfer.
  TlogSink sink(tmp_path("mismatch.tlog"));
  const trace::Copy copy{.stage = 1, .src = 2, .dst = 3, .nblocks = 1};
  const std::span<const trace::Copy> one{&copy, 1};
  for (const trace::TransferEvent& e :
       {trace::TransferEvent{
            .stage = 0, .src_rank = 2, .dst_rank = 3, .copies = one},
        trace::TransferEvent{
            .stage = 1, .src_rank = 4, .dst_rank = 3, .copies = one},
        trace::TransferEvent{
            .stage = 1, .src_rank = 2, .dst_rank = 4, .copies = one}})
    EXPECT_THROW(sink.on_transfer(e), Error);
  sink.on_transfer(trace::TransferEvent{
      .stage = 1, .src_rank = 2, .dst_rank = 3, .copies = one});
  sink.finish();
  EXPECT_EQ(read_info(sink.path()).stored_events(), 1);
}

TEST(Writer, RejectsWhatEveryReplayRejects) {
  // A NaN or Inf count and a negative sample would be refused by every
  // replay into a Tracer; the writer throws the registry's error at the
  // emission and stores nothing of them.
  std::string what;
  try {
    trace::MetricsRegistry().add_count("n", std::nan(""));
  } catch (const Error& e) {
    what = e.what();
  }
  ASSERT_FALSE(what.empty());
  TlogSink sink(tmp_path("rejects.tlog"));
  const double inf = std::numeric_limits<double>::infinity();
  try {
    sink.add_count("n", std::nan(""));
    FAIL() << "the writer stored a NaN count";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), what);
  }
  EXPECT_THROW(sink.add_count("n", inf), Error);
  EXPECT_THROW(sink.add_count("n", -inf), Error);
  EXPECT_THROW(sink.observe("d", -1.0), Error);
  EXPECT_THROW(sink.observe("d", inf), Error);
  sink.add_count("n", -2.0);  // a negative delta is a valid count
  sink.observe("d", 0.0);
  sink.finish();
  EXPECT_EQ(read_info(sink.path()).stored_events(), 2);
  trace::Tracer tracer;
  replay(sink.path(), tracer);
  EXPECT_EQ(tracer.metrics().count("n"), -2.0);
}

TEST(Writer, WriteFailureSurfacesAtFinish) {
  // The engine emits from destructors, so handlers must not throw on a
  // full disk; the failure waits for finish().
  TlogOptions opts;
  opts.block_bytes = 512;
  TlogSink sink("/dev/full", opts);
  EXPECT_NO_THROW(run_hierarchical(&sink));
  try {
    sink.finish();
    FAIL() << "finish() hid the write failure";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(sink.finished());
}

TEST(Writer, EmptyRunStillProducesAReadableFile) {
  const std::string path = tmp_path("norun.tlog");
  {
    TlogSink sink(path);
    sink.finish();
  }
  const FileInfo info = read_info(path);
  EXPECT_EQ(info.stored_events(), 0);
  EXPECT_TRUE(info.blocks.empty());
  trace::TraceSink null_sink;
  const ReplayStats stats = replay(path, null_sink);
  EXPECT_EQ(stats.delivered_events(), 0);
}

// ---------------------------------------------------------------------------
// Fuzz: malformed inputs must throw tarr::Error, never crash.  These run
// under the ASan/UBSan CI matrix like every other test.

TEST(Fuzz, EmptyAndGarbageFilesAreRejected) {
  const std::string path = tmp_path("fuzz_empty.tlog");
  spit(path, "");
  EXPECT_THROW(read_info(path), Error);
  spit(path, "not a tlog at all");
  EXPECT_THROW(read_info(path), Error);
  spit(path, std::string(64, '\0'));
  EXPECT_THROW(read_info(path), Error);
  EXPECT_THROW(read_info(tmp_path("does_not_exist.tlog")), Error);
}

TEST(Fuzz, EveryTruncationIsRejectedOrDecodesCleanly) {
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[0], opts);
  (void)live;
  const std::string whole = slurp(path);
  ASSERT_GT(whole.size(), 64u);
  const std::string cut = tmp_path("fuzz_cut.tlog");
  // Sweep a prefix ladder (every length near the ends, strides within).
  for (std::size_t len = 0; len < whole.size(); len += 1 + len / 16) {
    spit(cut, whole.substr(0, len));
    try {
      trace::TraceSink null_sink;
      replay(cut, null_sink);
      FAIL() << "truncation to " << len << " bytes was not detected";
    } catch (const Error&) {
      // expected: structured rejection
    }
  }
}

TEST(Fuzz, BitFlipsAreDetectedByChecksums) {
  const auto [live, path] = record_both(kScenarios[0]);
  (void)live;
  const std::string whole = slurp(path);
  const std::string flipped = tmp_path("fuzz_flip.tlog");
  int rejected = 0;
  // Flip one bit at a spread of positions covering header, payload, footer.
  for (std::size_t pos = 0; pos < whole.size();
       pos += 1 + whole.size() / 97) {
    std::string mut = whole;
    mut[pos] = static_cast<char>(mut[pos] ^ 0x40);
    spit(flipped, mut);
    try {
      trace::Tracer recorder;
      replay(flipped, recorder);
      // A flip in slack space may legitimately decode; it must at least
      // not crash (ASan/UBSan would flag any unchecked read).
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0) << "no corruption was ever detected";
}

// ---------------------------------------------------------------------------
// Fuzz behind the checksums: a test-local writer rebuilds a capture around
// the payloads it is handed, computing every checksum with tlog::fnv1a, so
// a corrupt payload reaches the decoder's own record checks.

/// Each block's payload bytes in the `.tlog` bytes `file`.
std::vector<std::string> payloads_of(const std::string& file,
                                     const FileInfo& info) {
  std::uint64_t footer_len = 0;
  for (int i = 7; i >= 0; --i)
    footer_len = footer_len << 8 |
                 static_cast<unsigned char>(file[file.size() - 24 + i]);
  std::vector<std::string> out;
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    const std::size_t end = b + 1 < info.blocks.size()
                                ? info.blocks[b + 1].offset
                                : file.size() - 24 - footer_len;
    out.push_back(file.substr(end - info.blocks[b].payload_len,
                              info.blocks[b].payload_len));
  }
  return out;
}

/// A `.tlog` with `info`'s block size, strings, per-block event counts and
/// stage ranges, whose blocks hold `payloads`; offsets, lengths and both
/// checksums are recomputed.
std::string rebuild(const FileInfo& info,
                    const std::vector<std::string>& payloads) {
  std::string file(kFileMagic.begin(), kFileMagic.end());
  put_varint(file, kFormatVersion);
  put_varint(file, info.block_bytes);
  std::string footer;
  put_varint(footer, info.strings.size());
  for (const std::string& str : info.strings) {
    put_varint(footer, str.size());
    footer += str;
  }
  put_varint(footer, payloads.size());
  for (std::size_t b = 0; b < payloads.size(); ++b) {
    const BlockInfo& e = info.blocks[b];
    put_varint(footer, file.size());
    put_varint(footer, payloads[b].size());
    put_varint(footer, static_cast<std::uint64_t>(e.events));
    for (const long long c : e.stored)
      put_varint(footer, static_cast<std::uint64_t>(c));
    put_svarint(footer, e.min_stage);
    put_svarint(footer, e.max_stage);
    put_varint(file, payloads[b].size());
    put_varint(file, static_cast<std::uint64_t>(e.events));
    put_varint(file, fnv1a(payloads[b].data(), payloads[b].size()));
    file += payloads[b];
  }
  file += footer;
  for (const std::uint64_t word :
       {static_cast<std::uint64_t>(footer.size()),
        fnv1a(footer.data(), footer.size()), kTrailerMagic})
    for (int i = 0; i < 8; ++i) file.push_back(static_cast<char>(word >> (8 * i)));
  return file;
}

TEST(Fuzz, PayloadMutationsBehindValidChecksumsDecodeOrThrow) {
  // The shuffled RD capture holds stage loads and a permutation.
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[1], opts);
  (void)live;
  const std::string whole = slurp(path);
  const FileInfo info = read_info(path);
  const std::vector<std::string> payloads = payloads_of(whole, info);
  ASSERT_GT(payloads.size(), 1u);
  ASSERT_EQ(rebuild(info, payloads), whole);
  const std::string mutated = tmp_path("fuzz_payload.tlog");
  int decoded = 0;
  int rejected = 0;
  for (std::size_t b = 0; b < payloads.size(); ++b)
    for (std::size_t pos = 0; pos < payloads[b].size();
         pos += 1 + payloads[b].size() / 40)
      for (const int mask : {0x01, 0x40, 0xFF}) {
        std::vector<std::string> mut = payloads;
        mut[b][pos] = static_cast<char>(mut[b][pos] ^ mask);
        spit(mutated, rebuild(info, mut));
        // Anything but a clean decode or a tarr::Error fails the test
        // (ASan/UBSan would flag an unchecked read or an overflow).
        try {
          trace::Tracer recorder;
          replay(mutated, recorder);
          ++decoded;
        } catch (const Error&) {
          ++rejected;
        }
      }
  EXPECT_GT(decoded, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Fuzz, ForgedRecordsAreRejectedByTheirOwnChecks) {
  // One transfer with one combining copy, one stage with one load, then
  // one local shuffle of two blocks.
  const std::string path = tmp_path("forge_src.tlog");
  {
    TlogSink sink(path);
    const trace::Copy copy{.nblocks = 1, .bytes = 1, .combining = true};
    sink.on_transfer(
        trace::TransferEvent{.contention = 0.0, .copies = {&copy, 1}});
    const trace::Load load{false, 3, 1, 64.0};
    sink.on_stage(trace::StageEvent{.repeats = 1, .loads = {&load, 1}});
    const std::vector<int> swap = {1, 0};
    sink.on_time(
        trace::TimeEvent{.what = "local-shuffle", .dst_of_block = swap});
    sink.finish();
  }
  const std::string whole = slurp(path);
  const FileInfo info = read_info(path);
  const std::string payload = payloads_of(whole, info).at(0);
  // Transfer: tag, stage, src, dst, src_core, dst_core, bytes, channel
  // (network, zigzag 6), attempts (zigzag 2), four doubles, copy count,
  // then src_off, dst_off, nblocks, bytes and combine flag.
  ASSERT_EQ(payload.substr(0, 19),
            std::string("\1\0\0\0\0\0\0\6\2\0\0\0\0\1\0\0\2\2\2", 19));
  // Stage: tag, stage, transfers, repeats (zigzag 1), start, duration,
  // retry_wait, load count, then qpi, id, dir and bytes.  Time: ...,
  // permutation length 2 and its entries 1 and -1 (zigzag 2, 1).
  ASSERT_EQ(payload.substr(19, 11),
            std::string("\0\0\0\2\0\0\0\1\0\6\2", 11));
  ASSERT_EQ(payload.substr(payload.size() - 3), "\2\2\1");
  const auto expect_rejected = [&](std::size_t at, char byte,
                                   const std::string& message) {
    SCOPED_TRACE(message);
    std::string forged = payload;
    forged[at] = byte;
    const std::string forged_path = tmp_path("forged.tlog");
    spit(forged_path, rebuild(info, {forged}));
    try {
      trace::Tracer recorder;
      replay(forged_path, recorder);
      FAIL() << "forged record decoded";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  };
  expect_rejected(2, '\1', "transfer names a negative rank or core");
  expect_rejected(5, '\1', "transfer names a negative rank or core");
  expect_rejected(13, '\x7f', "copy count exceeds remaining payload");
  expect_rejected(18, '\4', "copy combine flag 2 is neither 0 nor 1");
  expect_rejected(19 + 7, '\x7f', "load count exceeds remaining payload");
  expect_rejected(19 + 8, '\4', "load qpi flag 2 is neither 0 nor 1");
  expect_rejected(19 + 10, '\4', "load direction 2 is neither 0 nor 1");
  expect_rejected(payload.size() - 3, '\x7f',
                  "permutation longer than remaining payload");
  expect_rejected(0, '\x07', "unknown event tag 7");

  // A version 3 file, whose copies were records of their own.
  std::string v3 = whole;
  ASSERT_EQ(v3[kFileMagic.size()], '\4');
  v3[kFileMagic.size()] = '\3';
  const std::string v3_path = tmp_path("v3.tlog");
  spit(v3_path, v3);
  try {
    (void)read_info(v3_path);
    FAIL() << "version 3 file accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("has format version 3"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Bounded memory: the point of the subsystem.  The tarr::prof counting
// allocator charges every operator-new to the enclosing ProfScope; a
// streaming writer's allocation volume must stay O(block), while the
// buffering Tracer's grows with the event count.

/// Feed `events` synthetic transfer events (with a stage each `stride`) to
/// `sink` inside a ProfScope and return the requested allocation bytes.
long long charge_synthetic(trace::TraceSink& sink, int events,
                           const char* label) {
  prof::link_memhook();
  prof::Profiler profiler;
  {
    obs::Install guard(&profiler);
    prof::ProfScope scope(label);
    trace::TransferEvent t;
    trace::StageEvent s;
    for (int i = 0; i < events; ++i) {
      t.stage = i / 64;
      t.src_rank = i % 97;
      t.dst_rank = (i * 7) % 97;
      t.bytes = 256 + i % 13;
      t.start = 1.0 * i;
      t.duration = 2.0 + 0.25 * (i % 5);
      sink.on_transfer(t);
      if (i % 64 == 63) {
        s.stage = i / 64;
        s.transfers = 64;
        s.start = 1.0 * i;
        s.duration = 3.0;
        sink.on_stage(s);
      }
    }
  }
  const prof::Profile p = profiler.snapshot();
  EXPECT_TRUE(p.mem_tracked);
  const prof::ProfileEntry* e = p.find(label);
  return e == nullptr ? 0 : static_cast<long long>(e->mem_bytes_total);
}

TEST(Memory, WriterAllocationIsIndependentOfEventCount) {
  const int kSmall = 20'000;
  const int kLarge = 20 * kSmall;
  TlogSink small_sink(tmp_path("mem_small.tlog"));
  const long long small_bytes =
      charge_synthetic(small_sink, kSmall, "tlog-small");
  small_sink.finish();
  TlogSink large_sink(tmp_path("mem_large.tlog"));
  const long long large_bytes =
      charge_synthetic(large_sink, kLarge, "tlog-large");
  large_sink.finish();
  // 20x the events must not even double the allocation volume: the block
  // buffer reaches its steady-state capacity and is reused thereafter.
  EXPECT_LT(large_bytes, 2 * small_bytes + (1 << 16))
      << small_bytes << " -> " << large_bytes;

  // Contrast: the buffering recorder grows linearly with the stream.
  trace::Tracer small_rec;
  const long long rec_small = charge_synthetic(small_rec, kSmall, "rec-small");
  trace::Tracer large_rec;
  const long long rec_large = charge_synthetic(large_rec, kLarge, "rec-large");
  EXPECT_GT(rec_large, 5 * rec_small)
      << rec_small << " -> " << rec_large;
  // And the streamed capture still holds every event.
  const FileInfo info = read_info(tmp_path("mem_large.tlog"));
  EXPECT_EQ(info.stored_events(),
            static_cast<long long>(kLarge) + kLarge / 64);
}

}  // namespace
}  // namespace tarr::tlog
