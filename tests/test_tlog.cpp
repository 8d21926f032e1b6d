// tarr::tlog: the bounded-memory streaming binary trace log.  The load-
// bearing contracts, in order: a `.tlog` round-trip rebuilds the
// ScheduleRecord byte-identically to live recording (EXPECT_EQ on every
// field, bit-exact total); replay into a Tracer reproduces its timeline
// JSON and metrics CSV byte-for-byte; filtering and 1-in-N sampling drop
// exactly what they claim and bookkeep every dropped event; the footer
// index lets a reader skip whole blocks; corrupt input of any shape throws
// a structured tarr::Error instead of crashing; and writer memory stays
// O(block), not O(events) — asserted with the tarr::prof counting
// allocator (this binary links tarr_prof_memhook, like test_prof).

#include "tlog/reader.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "collectives/allgather.hpp"
#include "collectives/hierarchical.hpp"
#include "common/permutation.hpp"
#include "prof/prof.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "tlog/writer.hpp"
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
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  if (sink) eng.set_trace_sink(sink);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(16));
  return eng.total();
}

Usec run_rd_shuffled(trace::TraceSink* sink) {
  // EndShuffle adds a PermuteEvent + "local-shuffle" TimeEvent, covering
  // the out-of-stage record kinds.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  std::vector<Rank> rotated(16);
  for (int i = 0; i < 16; ++i) rotated[i] = (i + 1) % 16;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  if (sink) eng.set_trace_sink(sink);
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
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  if (sink) eng.set_trace_sink(sink);
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
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_transient_faults(faults);
  if (sink) eng.set_trace_sink(sink);
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

/// Record `scenario` twice — once live into a ScheduleRecorder, once
/// through a TlogSink — and return (live record, tlog path).
std::pair<trace::ScheduleRecord, std::string> record_both(
    const Scenario& scenario, TlogOptions opts = TlogOptions{}) {
  trace::ScheduleRecorder recorder;
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
  EXPECT_EQ(a.link_bytes, b.link_bytes);
  EXPECT_EQ(a.qpi_bytes, b.qpi_bytes);
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

TEST(Roundtrip, SmallBlocksForceFlushesAndStillRoundTrip) {
  // A 512-byte block turns one run into many blocks, exercising the
  // delta-context resets at every boundary.
  TlogOptions opts;
  opts.block_bytes = 512;
  const auto [live, path] = record_both(kScenarios[2], opts);
  const FileInfo info = read_info(path);
  EXPECT_GT(info.blocks.size(), 4u);
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
// Filtering and sampling: exact admission, exact bookkeeping.

TEST(Filter, WriterKindFilterDropsAndBookkeeps) {
  TlogOptions opts;
  opts.filter.kinds = 1u << static_cast<int>(EventKind::Stage);
  const std::string path = tmp_path("kindfilter.tlog");
  TlogSink sink(path, opts);
  run_ring(&sink);
  sink.finish();
  const WriteTotals& t = sink.totals();
  const int stage = static_cast<int>(EventKind::Stage);
  const int transfer = static_cast<int>(EventKind::Transfer);
  EXPECT_GT(t.received[stage], 0);
  EXPECT_EQ(t.filtered[stage], 0);
  EXPECT_EQ(t.stored[stage], t.received[stage]);
  EXPECT_GT(t.received[transfer], 0);
  EXPECT_EQ(t.filtered[transfer], t.received[transfer]);
  EXPECT_EQ(t.stored[transfer], 0);
  // The identity received = filtered + sampled_out + stored, per kind.
  for (int k = 0; k < kNumEventKinds; ++k)
    EXPECT_EQ(t.received[k], t.filtered[k] + t.sampled_out[k] + t.stored[k])
        << to_string(static_cast<EventKind>(k));
  // And the footer serialized the same numbers.
  const FileInfo info = read_info(path);
  EXPECT_EQ(info.received, t.received);
  EXPECT_EQ(info.filtered, t.filtered);
  EXPECT_EQ(info.sampled_out, t.sampled_out);
  EXPECT_EQ(info.stored, t.stored);
}

TEST(Filter, StageWindowKeepsExactlyTheWindow) {
  TlogOptions opts;
  opts.filter.min_stage = 2;
  opts.filter.max_stage = 4;
  const std::string path = tmp_path("stagewin.tlog");
  {
    TlogSink sink(path, opts);
    run_rd_shuffled(&sink);
    sink.finish();
  }
  trace::ScheduleRecorder recorder;
  replay(path, recorder);
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
  // Stage-less kinds (phases, counters, ...) pass a stage window untouched.
  const FileInfo info = read_info(path);
  const int counter = static_cast<int>(EventKind::Counter);
  EXPECT_EQ(info.filtered[counter], 0);
}

TEST(Filter, RankWindowMatchesEitherEndpoint) {
  TlogOptions opts;
  opts.filter.min_rank = 0;
  opts.filter.max_rank = 3;
  const std::string path = tmp_path("rankwin.tlog");
  {
    TlogSink sink(path, opts);
    run_ring(&sink);
    sink.finish();
  }
  trace::ScheduleRecorder recorder;
  replay(path, recorder);
  const trace::ScheduleRecord rec = recorder.take();
  ASSERT_FALSE(rec.transfers.empty());
  for (const auto& t : rec.transfers)
    EXPECT_TRUE((t.src >= 0 && t.src <= 3) || (t.dst >= 0 && t.dst <= 3))
        << t.src << " -> " << t.dst;
}

TEST(Filter, ReaderSideFilterSelectsWithoutRewriting) {
  // Write unfiltered once, then narrow at read time.
  const auto [live, path] = record_both(kScenarios[1]);
  ReplayOptions ropts;
  ropts.filter.kinds = 1u << static_cast<int>(EventKind::Transfer);
  trace::ScheduleRecorder recorder;
  const ReplayStats stats = replay(path, recorder, ropts);
  EXPECT_EQ(stats.delivered[static_cast<int>(EventKind::Transfer)],
            static_cast<long long>(live.transfers.size()));
  EXPECT_EQ(stats.delivered[static_cast<int>(EventKind::Stage)], 0);
  EXPECT_EQ(stats.delivered_events(),
            stats.delivered[static_cast<int>(EventKind::Transfer)]);
}

TEST(Sampling, OneInNKeepsEveryNthFromTheFirst) {
  TlogOptions opts;
  opts.sample_every = 3;
  const std::string path = tmp_path("sampled.tlog");
  TlogSink sink(path, opts);
  run_ring(&sink);
  sink.finish();
  const WriteTotals& t = sink.totals();
  for (const EventKind k :
       {EventKind::Transfer, EventKind::Copy, EventKind::Counter}) {
    const int i = static_cast<int>(k);
    if (t.received[i] == 0) continue;
    // Exact arithmetic: kept = ceil(received / 3) (the first is kept).
    EXPECT_EQ(t.stored[i], (t.received[i] + 2) / 3) << to_string(k);
    EXPECT_EQ(t.sampled_out[i], t.received[i] - t.stored[i]);
  }
  // Sampling never touches the structural kinds.
  const int stage = static_cast<int>(EventKind::Stage);
  EXPECT_EQ(t.sampled_out[stage], 0);
  EXPECT_EQ(t.stored[stage], t.received[stage]);
  // The footer agrees and advertises the sampling rate.
  const FileInfo info = read_info(path);
  EXPECT_EQ(info.sample_every, 3);
  EXPECT_EQ(info.sampled_out, t.sampled_out);
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
    if (b.has_stage()) EXPECT_LE(b.min_stage, b.max_stage);
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
  ReplayOptions ropts;
  ropts.filter.kinds = 1u << static_cast<int>(EventKind::WallSpan);
  trace::TraceSink null_sink;
  const ReplayStats stats = replay(path, null_sink, ropts);
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
  ReplayOptions ropts;
  ropts.filter.kinds = (1u << static_cast<int>(EventKind::Stage)) |
                       (1u << static_cast<int>(EventKind::Transfer)) |
                       (1u << static_cast<int>(EventKind::Copy));
  ropts.filter.max_stage = 0;
  trace::TraceSink null_sink;
  const ReplayStats stats = replay(path, null_sink, ropts);
  EXPECT_EQ(stats.blocks_total, static_cast<long long>(info.blocks.size()));
  EXPECT_GT(stats.blocks_skipped, 0);
  EXPECT_LT(stats.blocks_decoded, stats.blocks_total);
  // The decode was still correct: only stage-0 events came out.
  trace::ScheduleRecorder recorder;
  replay(path, recorder, ropts);
  const trace::ScheduleRecord rec = recorder.take();
  for (const auto& s : rec.stages) EXPECT_EQ(s.stage, 0);
  EXPECT_FALSE(rec.stages.empty());
}

// ---------------------------------------------------------------------------
// Writer lifecycle.

TEST(Writer, RejectsBadOptionsAndUnwritablePaths) {
  TlogOptions tiny;
  tiny.block_bytes = 16;
  EXPECT_THROW(TlogSink(tmp_path("tiny.tlog"), tiny), Error);
  TlogOptions bad_sample;
  bad_sample.sample_every = 0;
  EXPECT_THROW(TlogSink(tmp_path("bad.tlog"), bad_sample), Error);
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
      trace::ScheduleRecorder recorder;
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
// Bounded memory: the point of the subsystem.  The tarr::prof counting
// allocator charges every operator-new to the enclosing ProfScope; a
// streaming writer's allocation volume must stay O(block), while the
// buffering ScheduleRecorder's grows with the event count.

/// Feed `events` synthetic transfer events (with a stage each `stride`) to
/// `sink` inside a ProfScope and return the requested allocation bytes.
long long charge_synthetic(trace::TraceSink& sink, int events,
                           const char* label) {
  prof::link_memhook();
  prof::Profiler profiler;
  {
    prof::ScopedThreadProfiler guard(&profiler);
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
  trace::ScheduleRecorder small_rec;
  const long long rec_small = charge_synthetic(small_rec, kSmall, "rec-small");
  trace::ScheduleRecorder large_rec;
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
