// tarr::report: the exact-accounting invariant of the schedule recorder and
// critical-path analyzer (attributed time sums bit-exactly to the engine
// total — EXPECT_EQ, not NEAR), channel classification, mapping-attribution
// diffs, bench snapshot round-trips, and the regression gate's verdicts.

#include "report/critical_path.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "bench/fixtures.hpp"
#include "collectives/allgather.hpp"
#include "collectives/hierarchical.hpp"
#include "common/permutation.hpp"
#include "common/serialize.hpp"
#include "core/framework.hpp"
#include "fault/shrink.hpp"
#include "report/diff.hpp"
#include "report/render.hpp"
#include "report/snapshot.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "simmpi/transient.hpp"
#include "trace/record.hpp"
#include "trace/tracer.hpp"

namespace tarr::report {
namespace {

using simmpi::Communicator;
using simmpi::CostConfig;
using simmpi::Engine;
using simmpi::ExecMode;
using simmpi::make_layout;
using topology::Machine;
using trace::RecordedTransfer;
using trace::ScheduleRecord;
using trace::ScheduleRecorder;

/// Per-segment sanity: the nature breakdown covers the whole duration and
/// nothing is negative.
void expect_breakdown_covers(const CriticalPath& path) {
  for (const auto& s : path.segments) {
    EXPECT_GE(s.serialization, 0.0) << s.what;
    EXPECT_GE(s.contention, 0.0) << s.what;
    EXPECT_GE(s.retransmission, 0.0) << s.what;
    const double sum = s.serialization + s.contention + s.retransmission;
    EXPECT_NEAR(sum, s.duration, 1e-9 * std::max(1.0, s.duration)) << s.what;
  }
  double by_channel = 0.0;
  for (const auto& [ch, attr] : path.by_channel) by_channel += attr.time;
  EXPECT_NEAR(by_channel, path.total, 1e-9 * std::max(1.0, path.total));
}

/// Run a ring or recursive-doubling allgather over `comm` with a recorder
/// attached and return (record, engine total).
std::pair<ScheduleRecord, Usec> record_allgather(
    const Communicator& comm, collectives::AllgatherAlgo algo,
    collectives::OrderFix fix = collectives::OrderFix::None,
    Bytes block = 256) {
  ScheduleRecorder rec;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, block, comm.size());
  eng.set_trace_sink(&rec);
  collectives::run_allgather(eng, {algo, fix},
                             identity_permutation(comm.size()));
  return {rec.take(), eng.total()};
}

// ---------------------------------------------------------------------------
// The exact-sum invariant, across every schedule shape the engine emits.

TEST(CriticalPath, AttributionSumsExactlyRingAllgather) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  // The ring uses repeat_last_stage compression in Timed mode, so this also
  // covers the repeats > 1 path.
  const auto [rec, total] =
      record_allgather(comm, collectives::AllgatherAlgo::Ring);
  const CriticalPath path = analyze_critical_path(rec, m);
  EXPECT_EQ(path.total, total);  // bit-exact, not approximate
  EXPECT_EQ(rec.total, total);
  EXPECT_FALSE(path.segments.empty());
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AttributionSumsExactlyRecursiveDoubling) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  const auto [rec, total] =
      record_allgather(comm, collectives::AllgatherAlgo::RecursiveDoubling);
  const CriticalPath path = analyze_critical_path(rec, m);
  EXPECT_EQ(path.total, total);
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AttributionSumsExactlyWithEndShuffle) {
  // §V-B end shuffle adds out-of-stage time via a TimeEvent; the analyzer
  // must fold it into the chain (as a Local segment) to stay exact.  The
  // oldrank permutation must actually move blocks (identity would shuffle
  // nothing and skip the charge), so rotate by one.
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  std::vector<Rank> rotated(16);
  for (int i = 0; i < 16; ++i) rotated[i] = (i + 1) % 16;
  ScheduleRecorder recorder;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_trace_sink(&recorder);
  collectives::run_allgather(eng,
                             {collectives::AllgatherAlgo::RecursiveDoubling,
                              collectives::OrderFix::EndShuffle},
                             rotated);
  const ScheduleRecord rec = recorder.take();
  const Usec total = eng.total();
  const CriticalPath path = analyze_critical_path(rec, m);
  EXPECT_EQ(path.total, total);
  bool saw_shuffle = false;
  for (const auto& s : path.segments)
    if (s.what == "local-shuffle") {
      saw_shuffle = true;
      EXPECT_EQ(s.channel, PathChannel::Local);
      EXPECT_EQ(s.stage, -1);
    }
  EXPECT_TRUE(saw_shuffle);
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AttributionSumsExactlyHierarchical) {
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();
  const Communicator comm(m, make_layout(m, p, {}));
  ScheduleRecorder rec;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  eng.set_trace_sink(&rec);
  collectives::run_hier_allgather(
      eng,
      {collectives::AllgatherAlgo::Ring, collectives::IntraAlgo::Binomial,
       collectives::OrderFix::None},
      identity_permutation(p));
  const ScheduleRecord record = rec.take();
  const CriticalPath path = analyze_critical_path(record, m);
  EXPECT_EQ(path.total, eng.total());
  expect_breakdown_covers(path);
  // Hierarchical phases annotate the chain.
  EXPECT_FALSE(record.phases.empty());
  bool saw_phase = false;
  for (const auto& s : path.segments) saw_phase |= !s.phase.empty();
  EXPECT_TRUE(saw_phase);
}

TEST(CriticalPath, AttributionSumsExactlyPipelinedHierarchical) {
  const Machine m = Machine::gpc(4);
  const int p = m.total_cores();  // 8 cores/node = 2^3, as the pipeline needs
  const Communicator comm(m, make_layout(m, p, {}));
  ScheduleRecorder rec;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, p);
  eng.set_trace_sink(&rec);
  collectives::run_hier_allgather_pipelined(eng, collectives::IntraAlgo::Binomial,
                                            collectives::OrderFix::None,
                                            identity_permutation(p));
  const CriticalPath path = analyze_critical_path(rec.record(), m);
  EXPECT_EQ(path.total, eng.total());
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AttributionSumsExactlyOnShrunkenCommunicator) {
  // Post-fault: node 3 dies, the communicator shrinks, the schedule routes
  // over the degraded machine — the analyzer must follow the same routes.
  const Machine base = Machine::gpc(8);
  const Communicator parent(base,
                            make_layout(base, base.total_cores(), {}));
  const fault::DegradedTopology topo(base, fault::FaultMask{}.fail_node(3));
  const fault::ShrunkComm shrunk = fault::shrink_communicator(topo, parent);
  ScheduleRecorder rec;
  Engine eng(shrunk.comm, CostConfig{}, ExecMode::Timed, 256,
             shrunk.comm.size());
  eng.set_trace_sink(&rec);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(shrunk.comm.size()));
  const CriticalPath path = analyze_critical_path(rec.record(), topo.machine());
  EXPECT_EQ(path.total, eng.total());
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AttributionSumsExactlyUnderTransientFaults) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  simmpi::TransientFaultConfig faults;
  faults.drop_prob = 0.2;
  faults.seed = 5;
  ScheduleRecorder rec;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_transient_faults(faults);
  eng.set_trace_sink(&rec);
  collectives::run_allgather(
      eng,
      {collectives::AllgatherAlgo::RecursiveDoubling,
       collectives::OrderFix::None},
      identity_permutation(16));
  ASSERT_GT(eng.transient_stats().retransmissions, 0);
  const CriticalPath path = analyze_critical_path(rec.record(), m);
  EXPECT_EQ(path.total, eng.total());
  // Drop-detection timeouts surface as retransmission overhead on the path.
  EXPECT_GT(path.retransmission, 0.0);
  expect_breakdown_covers(path);
}

TEST(CriticalPath, AddTimeBecomesAnExtraSegment) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 4, {}));
  ScheduleRecorder rec;
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 4);
  eng.set_trace_sink(&rec);
  eng.begin_stage();
  eng.copy(0, 0, 1, 0, 1);
  eng.end_stage();
  eng.add_time(17.5, "compute");
  const CriticalPath path = analyze_critical_path(rec.record(), m);
  EXPECT_EQ(path.total, eng.total());
  ASSERT_EQ(path.segments.size(), 2u);
  EXPECT_EQ(path.segments[1].what, "compute");
  EXPECT_EQ(path.segments[1].channel, PathChannel::Other);
  EXPECT_EQ(path.segments[1].duration, 17.5);
  // Out-of-stage time is pure serialization.
  EXPECT_EQ(path.segments[1].serialization, 17.5);
}

// ---------------------------------------------------------------------------
// Repeat compression: shared transfer slices and replayed resource loads.

TEST(Record, RepeatCompressionMatchesExplicitStages) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  auto run = [&](bool compressed, ScheduleRecorder& rec) {
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 16);
    eng.set_trace_sink(&rec);
    const int reps = 3;
    if (compressed) {
      eng.begin_stage();
      eng.copy(0, 0, 15, 0, 1);  // crosses the network
      eng.end_stage();
      eng.repeat_last_stage(reps - 1);
    } else {
      for (int i = 0; i < reps; ++i) {
        eng.begin_stage();
        eng.copy(0, 0, 15, 0, 1);
        eng.end_stage();
      }
    }
    return eng.total();
  };
  ScheduleRecorder compressed, explicit_;
  const Usec tc = run(true, compressed);
  const Usec te = run(false, explicit_);
  EXPECT_EQ(tc, te);
  EXPECT_EQ(compressed.record().total, tc);
  EXPECT_EQ(explicit_.record().total, te);
  // The compressed record replays the repeated stage's link loads, so both
  // runs attribute identical bytes to every directed cable.
  EXPECT_EQ(compressed.record().link_bytes, explicit_.record().link_bytes);
  EXPECT_EQ(compressed.record().qpi_bytes, explicit_.record().qpi_bytes);
  // And the critical paths agree on total and channel attribution.
  const CriticalPath pc = analyze_critical_path(compressed.record(), m);
  const CriticalPath pe = analyze_critical_path(explicit_.record(), m);
  EXPECT_EQ(pc.total, pe.total);
  ASSERT_FALSE(pc.segments.empty());
  EXPECT_EQ(pc.segments.back().repeats, 2);  // the compressed block
}

TEST(Record, PhaseAtReturnsInnermostPhase) {
  ScheduleRecord rec;
  rec.phases.push_back({"outer", 0.0, 100.0});
  rec.phases.push_back({"inner", 10.0, 20.0});
  EXPECT_EQ(rec.phase_at(15.0), "inner");
  EXPECT_EQ(rec.phase_at(50.0), "outer");
  EXPECT_EQ(rec.phase_at(200.0), "");
}

// ---------------------------------------------------------------------------
// Channel classification.

TEST(CriticalPath, ClassifiesChannelsByMachineTopology) {
  const Machine m = Machine::gpc(64);  // > one leaf switch worth of nodes
  RecordedTransfer t;
  t.src_core = 0;
  t.dst_core = 1;

  t.channel = trace::Channel::SameSocket;
  EXPECT_EQ(classify_channel(m, t), PathChannel::IntraSocket);
  t.channel = trace::Channel::SameComplex;
  EXPECT_EQ(classify_channel(m, t), PathChannel::IntraSocket);
  t.channel = trace::Channel::CrossSocket;
  EXPECT_EQ(classify_channel(m, t), PathChannel::Qpi);
  t.channel = trace::Channel::Local;
  EXPECT_EQ(classify_channel(m, t), PathChannel::Local);

  // Find an intra-leaf pair (2 hops) and a cross-core-switch pair (> 2).
  CoreId intra_leaf = -1, cross_core = -1;
  for (NodeId n = 1; n < 64; ++n) {
    const CoreId c = n * m.cores_per_node();
    const int hops = m.network_hops_between_cores(0, c);
    if (hops <= 2 && intra_leaf < 0) intra_leaf = c;
    if (hops > 2 && cross_core < 0) cross_core = c;
  }
  ASSERT_GE(intra_leaf, 0);
  ASSERT_GE(cross_core, 0);
  t.channel = trace::Channel::Network;
  t.dst_core = intra_leaf;
  EXPECT_EQ(classify_channel(m, t), PathChannel::IntraLeaf);
  t.dst_core = cross_core;
  EXPECT_EQ(classify_channel(m, t), PathChannel::CrossCore);
}

// ---------------------------------------------------------------------------
// Mapping-attribution diff.

TEST(Diff, DetectsMigrationBetweenChannelClasses) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  auto run = [&](Rank dst, ScheduleRecorder& rec) {
    Engine eng(comm, CostConfig{}, ExecMode::Timed, 1024, 16);
    eng.set_trace_sink(&rec);
    eng.begin_stage();
    eng.copy(0, 0, dst, 0, 1);
    eng.end_stage();
    return eng.total();
  };
  // Run A sends across the network; run B keeps the byte on-node.
  ScheduleRecorder ra, rb;
  const Usec ta = run(15, ra);
  const Usec tb = run(1, rb);
  ASSERT_GT(ta, tb);  // network is slower than shared memory
  const MappingDiff diff = diff_runs(ra.record(), rb.record(), m);
  EXPECT_EQ(diff.total_a, ta);
  EXPECT_EQ(diff.total_b, tb);
  EXPECT_GT(diff.improvement_percent, 0.0);
  // Bytes left the network classes...
  double network_delta = 0.0;
  for (const auto ch : {PathChannel::IntraLeaf, PathChannel::CrossCore}) {
    const auto it = diff.channels.find(ch);
    if (it != diff.channels.end()) network_delta += it->second.bytes_delta();
  }
  EXPECT_LT(network_delta, 0.0);
  // ...and the directed cables run A loaded show up as relieved.
  ASSERT_FALSE(diff.relieved.empty());
  for (const auto& r : diff.relieved) EXPECT_LT(r.delta(), 0.0);
  // Run B loaded no cable, so nothing is newly loaded.
  for (const auto& r : diff.newly_loaded) EXPECT_FALSE(r.qpi);
}

TEST(Diff, ReorderingConservesLogicalBytes) {
  // Same collective, two mappings: the diff must show identical total
  // logical bytes (migrated between classes, not created or lost).
  const Machine m = Machine::gpc(4);
  const simmpi::LayoutSpec cyclic{simmpi::NodeOrder::Cyclic,
                                  simmpi::SocketOrder::Bunch};
  const Communicator comm(m, make_layout(m, 32, cyclic));
  core::ReorderFramework fw(m);
  const auto rc = fw.reorder(comm, mapping::Pattern::Ring);

  ScheduleRecorder base, cand;
  auto run = [&](const Communicator& c, ScheduleRecorder& rec) {
    Engine eng(c, CostConfig{}, ExecMode::Timed, 4096, c.size());
    eng.set_trace_sink(&rec);
    return collectives::run_allgather(
        eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
        identity_permutation(c.size()));
  };
  run(comm, base);
  run(rc.comm, cand);
  const MappingDiff diff = diff_runs(base.record(), cand.record(), m);
  double bytes_a = 0.0, bytes_b = 0.0;
  for (const auto& [ch, d] : diff.channels) {
    bytes_a += d.a.bytes;
    bytes_b += d.b.bytes;
  }
  EXPECT_EQ(bytes_a, bytes_b);
  // The topology-aware mapping must not lose to the cyclic baseline.
  EXPECT_LE(diff.total_b, diff.total_a);
}

// ---------------------------------------------------------------------------
// Snapshots and the regression gate.

BenchSnapshot sample_snapshot() {
  BenchSnapshot s;
  s.bench = "fig3_nonhier";
  s.config = "smoke";
  s.meta["nodes"] = "16";
  s.metrics.push_back({"latency_us", 120.5, "us", false, true});
  s.metrics.push_back({"improvement", 31.25, "percent", true, true});
  s.metrics.push_back({"wall_seconds", 1.75, "seconds", false, false});
  return s;
}

TEST(Snapshot, JsonRoundTripPreservesEverything) {
  const BenchSnapshot s = sample_snapshot();
  const BenchSnapshot r = parse_snapshot(s.json());
  EXPECT_EQ(r.schema, kSnapshotSchema);
  EXPECT_EQ(r.bench, s.bench);
  EXPECT_EQ(r.config, s.config);
  EXPECT_EQ(r.meta, s.meta);
  ASSERT_EQ(r.metrics.size(), s.metrics.size());
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    EXPECT_EQ(r.metrics[i].name, s.metrics[i].name);
    EXPECT_EQ(r.metrics[i].value, s.metrics[i].value);  // %.17g round-trips
    EXPECT_EQ(r.metrics[i].unit, s.metrics[i].unit);
    EXPECT_EQ(r.metrics[i].higher_is_better, s.metrics[i].higher_is_better);
    EXPECT_EQ(r.metrics[i].gate, s.metrics[i].gate);
  }
  // Serialization is deterministic.
  EXPECT_EQ(s.json(), r.json());
}

TEST(Snapshot, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_snapshot("not json"), Error);
  EXPECT_THROW(parse_snapshot("{\"schema\": 1}"), Error);  // missing fields
  EXPECT_THROW(parse_snapshot("{\"schema\": 99, \"bench\": \"x\", "
                              "\"config\": \"y\", \"metrics\": []}"),
               Error);  // unsupported schema
  EXPECT_THROW(parse_snapshot(sample_snapshot().json() + "garbage"), Error);
  // Numbers strtod overflows to infinity, and a schema that is no integer.
  const auto snapshot = [](const std::string& schema,
                           const std::string& value) {
    return "{\"schema\": " + schema +
           ", \"bench\": \"x\", \"config\": \"y\", \"metrics\": "
           "[{\"name\": \"m\", \"value\": " +
           value + ", \"unit\": \"us\"}]}";
  };
  const std::string schema = std::to_string(kSnapshotSchema);
  EXPECT_EQ(parse_snapshot(snapshot(schema, "2")).metrics.at(0).value, 2.0);
  EXPECT_THROW(parse_snapshot(snapshot(schema, "1e999")), Error);
  EXPECT_THROW(parse_snapshot(snapshot(schema, "-1e999")), Error);
  EXPECT_THROW(parse_snapshot(snapshot("1e999", "2")), Error);
  EXPECT_THROW(parse_snapshot(snapshot("1.5", "2")), Error);

  // Every cut and every single-bit flip of a valid snapshot either parses
  // or throws tarr::Error — never another exception or a crash.
  const std::string text = sample_snapshot().json();
  const auto parses_or_throws_error = [](const std::string& input) {
    try {
      (void)parse_snapshot(input);
    } catch (const Error&) {
    } catch (...) {
      ADD_FAILURE() << "non-tarr exception on input:\n" << input;
    }
  };
  for (std::size_t cut = 0; cut < text.size(); ++cut)
    parses_or_throws_error(text.substr(0, cut));
  for (std::size_t i = 0; i < text.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = text;
      flipped[i] = static_cast<char>(flipped[i] ^ (1 << bit));
      parses_or_throws_error(flipped);
    }
  }
}

TEST(Snapshot, IdenticalSnapshotsPassTheGate) {
  const BenchSnapshot s = sample_snapshot();
  const auto cmp = compare_snapshots(s, s, CompareOptions{});
  EXPECT_FALSE(cmp.regressed());
  for (const auto& m : cmp.metrics) {
    EXPECT_FALSE(m.regressed) << m.name;
    EXPECT_FALSE(m.improved) << m.name;
  }
}

TEST(Snapshot, InjectedRegressionBeyondToleranceFails) {
  const BenchSnapshot base = sample_snapshot();
  BenchSnapshot cur = base;
  cur.metrics[0].value = 130.0;  // latency +7.9% with 2% tolerance -> worse
  CompareOptions opts;
  opts.rel_tolerance = 2.0;
  const auto cmp = compare_snapshots(base, cur, opts);
  EXPECT_TRUE(cmp.regressed());
  EXPECT_TRUE(cmp.metrics[0].regressed);
  // Within tolerance: no verdict either way.
  cur.metrics[0].value = 121.0;  // +0.4%
  EXPECT_FALSE(compare_snapshots(base, cur, opts).regressed());
}

TEST(Snapshot, DirectionAndGateFlagsAreHonored) {
  const BenchSnapshot base = sample_snapshot();
  CompareOptions opts;
  opts.rel_tolerance = 2.0;

  // A higher_is_better metric dropping is a regression...
  BenchSnapshot cur = base;
  cur.metrics[1].value = 20.0;  // improvement 31.25 -> 20
  EXPECT_TRUE(compare_snapshots(base, cur, opts).metrics[1].regressed);
  // ...and rising is an improvement, never a regression.
  cur.metrics[1].value = 40.0;
  {
    const auto cmp = compare_snapshots(base, cur, opts);
    EXPECT_FALSE(cmp.metrics[1].regressed);
    EXPECT_TRUE(cmp.metrics[1].improved);
  }
  // gate=false metrics (wall time) never regress, however bad.
  cur = base;
  cur.metrics[2].value = 1000.0;
  EXPECT_FALSE(compare_snapshots(base, cur, opts).regressed());
}

TEST(Snapshot, MissingMetricOrBenchRegresses) {
  const BenchSnapshot base = sample_snapshot();
  BenchSnapshot cur = base;
  cur.metrics.erase(cur.metrics.begin());  // drop the gated latency metric
  const auto cmp = compare_snapshots(base, cur, CompareOptions{});
  EXPECT_TRUE(cmp.regressed());
  EXPECT_TRUE(cmp.metrics[0].missing);

  // A whole bench vanishing from the current set is a regression too.
  const auto results =
      compare_snapshot_sets({base}, {}, CompareOptions{});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].missing);
  EXPECT_TRUE(any_regressed(results));
}

TEST(Snapshot, SetLoadsFromDirectoryAndGates) {
  const std::string dir = ::testing::TempDir() + "tarr_snapshot_set";
  std::filesystem::create_directories(dir);
  BenchSnapshot a = sample_snapshot();
  BenchSnapshot b = sample_snapshot();
  b.bench = "fig4_hier";
  a.write(dir + "/BENCH_" + a.bench + ".json");
  b.write(dir + "/BENCH_" + b.bench + ".json");

  const auto set = load_snapshot_set(dir);
  ASSERT_EQ(set.size(), 2u);
  EXPECT_EQ(set[0].bench, "fig3_nonhier");  // sorted by bench name
  EXPECT_EQ(set[1].bench, "fig4_hier");

  const auto results = compare_snapshot_sets(set, set, CompareOptions{});
  EXPECT_FALSE(any_regressed(results));
  const std::string rendered =
      render_comparison(results, CompareOptions{}, RenderFormat::Text);
  EXPECT_NE(rendered.find("PASS"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, GlobMatchHandlesStarsAndQuestionMarks) {
  EXPECT_TRUE(glob_match("BENCH_*.json", "BENCH_fig3_nonhier.json"));
  EXPECT_TRUE(glob_match("BENCH_fig?_*.json", "BENCH_fig3_nonhier.json"));
  EXPECT_FALSE(glob_match("BENCH_fig?_*.json", "BENCH_abl_contention.json"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("***", "x"));
  EXPECT_FALSE(glob_match("?", ""));
  EXPECT_TRUE(glob_match("a*b*c", "axxbxxc"));
  EXPECT_FALSE(glob_match("a*b*c", "axxbxx"));
  // Backtracking: the first `*` must be able to re-absorb a premature match.
  EXPECT_TRUE(glob_match("*bc", "abcbc"));
  EXPECT_TRUE(glob_match("exact.json", "exact.json"));
  EXPECT_FALSE(glob_match("exact.json", "exact.jsonx"));
}

TEST(Snapshot, GlobPathsAndSetLoading) {
  const std::string dir = ::testing::TempDir() + "tarr_snapshot_glob";
  std::filesystem::create_directories(dir);
  BenchSnapshot a = sample_snapshot();  // bench fig3_nonhier
  BenchSnapshot b = sample_snapshot();
  b.bench = "fig4_hier";
  BenchSnapshot c = sample_snapshot();
  c.bench = "abl_contention";
  a.write(dir + "/BENCH_" + a.bench + ".json");
  b.write(dir + "/BENCH_" + b.bench + ".json");
  c.write(dir + "/BENCH_" + c.bench + ".json");

  // The fig? glob selects the two figure snapshots, not the ablation.
  const auto figs = load_snapshot_set_glob(dir + "/BENCH_fig?_*.json");
  ASSERT_EQ(figs.size(), 2u);
  EXPECT_EQ(figs[0].bench, "fig3_nonhier");  // sorted by bench name
  EXPECT_EQ(figs[1].bench, "fig4_hier");

  // Without wildcards the glob loader is exactly load_snapshot_set.
  const auto all = load_snapshot_set_glob(dir);
  EXPECT_EQ(all.size(), 3u);

  // glob_paths returns sorted paths; nothing matching is an error.
  const auto paths = glob_paths(dir + "/BENCH_*.json");
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_TRUE(std::is_sorted(paths.begin(), paths.end()));
  EXPECT_THROW(glob_paths(dir + "/BENCH_nomatch*"), Error);
  EXPECT_THROW(glob_paths(dir + "/missing.json"), Error);
  // Wildcards in a directory component are rejected, not mis-expanded.
  EXPECT_THROW(glob_paths(dir + "/*/BENCH_*.json"), Error);
  std::filesystem::remove_all(dir);
}

TEST(Snapshot, EmitterWritesGatedFileWhenEnvSet) {
  const std::string dir = ::testing::TempDir() + "tarr_snapshot_emit";
  std::filesystem::create_directories(dir);
  ::setenv("TARR_BENCH_SNAPSHOT_DIR", dir.c_str(), 1);
  ::setenv("TARR_BENCH_SMOKE", "1", 1);
  {
    bench::SnapshotEmitter emitter("unit_test");
    ASSERT_TRUE(emitter.enabled());
    emitter.set_meta("nodes", "2");
    emitter.add_metric("cost", 42.0, "us", /*higher_is_better=*/false);
    EXPECT_TRUE(emitter.dump());
  }
  ::unsetenv("TARR_BENCH_SNAPSHOT_DIR");
  ::unsetenv("TARR_BENCH_SMOKE");
  const BenchSnapshot s = load_snapshot(dir + "/BENCH_unit_test.json");
  EXPECT_EQ(s.bench, "unit_test");
  EXPECT_EQ(s.config, "smoke");
  EXPECT_EQ(s.meta.at("nodes"), "2");
  ASSERT_EQ(s.metrics.size(), 2u);  // cost + auto-appended wall_seconds
  EXPECT_EQ(s.metrics[0].name, "cost");
  EXPECT_EQ(s.metrics[1].name, "wall_seconds");
  EXPECT_FALSE(s.metrics[1].gate);
  std::filesystem::remove_all(dir);

  // Disabled (no env var): inert, no file.
  bench::SnapshotEmitter off("unit_test_off");
  EXPECT_FALSE(off.enabled());
  EXPECT_FALSE(off.dump());
}

// ---------------------------------------------------------------------------
// Plumbing: TeeSink fan-out and fail-fast path probing.

TEST(Plumbing, TeeSinkFeedsTracerAndRecorderIdentically) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  trace::Tracer tracer;
  ScheduleRecorder rec;
  trace::TeeSink tee({&tracer, &rec});
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  eng.set_trace_sink(&tee);
  collectives::run_allgather(
      eng, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(16));
  // Both sides saw the full run: the recorder reconstructs the exact total
  // and the tracer aggregated every stage.
  EXPECT_EQ(rec.record().total, eng.total());
  EXPECT_EQ(tracer.record().total, eng.total());
  EXPECT_GT(tracer.metrics().count("engine.stages"), 0.0);
  EXPECT_FALSE(tracer.record().stages.empty());
  // And teeing must not perturb the simulation itself.
  Engine plain(comm, CostConfig{}, ExecMode::Timed, 256, 16);
  collectives::run_allgather(
      plain, {collectives::AllgatherAlgo::Ring, collectives::OrderFix::None},
      identity_permutation(16));
  EXPECT_EQ(plain.total(), eng.total());

  // Null branches are simply skipped.
  trace::TeeSink half({nullptr, &rec});
  half.on_time(trace::TimeEvent{"x", 0.0, 1.0});
  trace::TeeSink none({nullptr, nullptr});
  none.on_time(trace::TimeEvent{"x", 0.0, 1.0});
}

TEST(Plumbing, EnsureWritableFailsFastAndLeavesNoArtifact) {
  EXPECT_THROW(
      ensure_writable("/nonexistent-dir-tarr/trace.json"),
      Error);
  // A probe on a fresh path must not leave an empty file behind.
  const std::string fresh = ::testing::TempDir() + "tarr_probe_fresh.json";
  std::remove(fresh.c_str());
  ensure_writable(fresh);
  EXPECT_FALSE(std::filesystem::exists(fresh));
  // A probe on an existing file must not truncate it.
  const std::string existing = ::testing::TempDir() + "tarr_probe_keep.json";
  {
    std::FILE* f = std::fopen(existing.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("payload", f);
    std::fclose(f);
  }
  ensure_writable(existing);
  EXPECT_EQ(std::filesystem::file_size(existing), 7u);
  std::remove(existing.c_str());
}

// ---------------------------------------------------------------------------
// Rendering smoke checks (content is covered by the modules above).

TEST(Render, ReportsMentionTheirKeyNumbers) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 16, {}));
  const auto [rec, total] =
      record_allgather(comm, collectives::AllgatherAlgo::Ring);
  const CriticalPath path = analyze_critical_path(rec, m);
  for (const auto fmt : {RenderFormat::Text, RenderFormat::Markdown}) {
    const std::string out = render_critical_path(path, fmt);
    EXPECT_NE(out.find("critical path"), std::string::npos);
    EXPECT_NE(out.find("serialization"), std::string::npos);
  }
  const MappingDiff diff = diff_runs(rec, rec, m);
  EXPECT_EQ(diff.improvement_percent, 0.0);
  const std::string out = render_diff(diff);
  EXPECT_NE(out.find("mapping-attribution diff"), std::string::npos);
}

}  // namespace
}  // namespace tarr::report
