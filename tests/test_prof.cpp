// tarr::prof: exact scope-tree arithmetic, same-seed byte-identity of the
// counter exports (including under transient faults), zero perturbation of
// simulated results, disabled-path no-ops, the counting-allocator hook, the
// MetricsRegistry bridge, and speedscope JSON well-formedness.

#include "prof/prof.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "collectives/allgather.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "common/serialize.hpp"
#include "core/refine.hpp"
#include "fault/campaign.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/layout.hpp"
#include "topology/distance.hpp"
#include "topology/machine.hpp"
#include "trace/tracer.hpp"

namespace tarr::prof {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator so the speedscope test needs no external
// parser (same approach as test_trace.cpp).

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}

  bool valid() {
    pos_ = 0;
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    for (;;) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') ++pos_;
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

int count_occurrences(const std::string& hay, const std::string& needle) {
  int n = 0;
  for (std::size_t p = hay.find(needle); p != std::string::npos;
       p = hay.find(needle, p + needle.size()))
    ++n;
  return n;
}

/// Build the small reference tree used by several tests:
///   a (x+=3) -> b (x+=2, y+=1), then a again (x+=5), plus root z+=7.
Profiler small_tree() {
  Profiler p;
  p.enter("a");
  p.count("x", 3);
  p.enter("b");
  p.count("x", 2);
  p.count("y", 1);
  p.exit_scope();
  p.exit_scope();
  p.enter("a");
  p.count("x", 5);
  p.exit_scope();
  p.count("z", 7);  // no open scope: charged to the root
  return p;
}

// ---------------------------------------------------------------------------
// Exact scope-tree arithmetic.

TEST(Profiler, AggregatesRepeatedScopesByParentAndName) {
  const Profile s = small_tree().snapshot();

  ASSERT_EQ(s.entries.size(), 3u);  // (root), a, a/b — not a second 'a'
  EXPECT_EQ(s.entries[0].name, "(root)");
  EXPECT_EQ(s.entries[0].path, "");
  EXPECT_EQ(s.entries[0].depth, 0);
  EXPECT_EQ(s.entries[0].calls, 1);

  const ProfileEntry* a = s.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->calls, 2);  // both ProfScope("a") entries accumulated
  EXPECT_EQ(a->depth, 1);
  EXPECT_EQ(a->parent, 0);

  const ProfileEntry* b = s.find("a/b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->calls, 1);
  EXPECT_EQ(b->depth, 2);
  EXPECT_EQ(s.entries[b->parent].path, "a");
}

TEST(Profiler, SelfAndTotalAreExactSums) {
  const Profile s = small_tree().snapshot();
  const ProfileEntry* a = s.find("a");
  const ProfileEntry* b = s.find("a/b");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  // Named counters: self at the charging scope, totals include the subtree.
  EXPECT_EQ(a->counters.at("x").self, 8.0);    // 3 + 5
  EXPECT_EQ(a->counters.at("x").total, 10.0);  // + b's 2
  EXPECT_EQ(b->counters.at("x").self, 2.0);
  EXPECT_EQ(b->counters.at("y").total, 1.0);
  EXPECT_EQ(s.entries[0].counters.at("z").self, 7.0);
  EXPECT_EQ(s.entries[0].counters.at("x").self, 0.0);
  EXPECT_EQ(s.entries[0].counters.at("x").total, 10.0);

  // The aggregate "work" metric sums every counter delta.
  EXPECT_EQ(a->work_self, 8.0);
  EXPECT_EQ(b->work_self, 3.0);
  EXPECT_EQ(a->work_total, 11.0);
  EXPECT_EQ(s.entries[0].work_total, 18.0);  // 11 in the tree + 7 at root

  // total == self + sum(child totals), exactly, for every entry.
  for (std::size_t i = 0; i < s.entries.size(); ++i) {
    double child_work = 0.0;
    for (const ProfileEntry& e : s.entries)
      if (e.parent == static_cast<int>(i)) child_work += e.work_total;
    EXPECT_EQ(s.entries[i].work_total, s.entries[i].work_self + child_work);
  }

  EXPECT_EQ(s.counter_total("x"), 10.0);
  EXPECT_EQ(s.counter_total("z"), 7.0);
  EXPECT_EQ(s.counter_total("nope"), 0.0);
}

TEST(Profiler, RecursionNestsInsteadOfDoubleCounting) {
  Profiler p;
  p.enter("r");
  p.count("w", 1);
  p.enter("r");  // recursive re-entry
  p.count("w", 1);
  p.exit_scope();
  p.exit_scope();
  const Profile s = p.snapshot();
  const ProfileEntry* outer = s.find("r");
  const ProfileEntry* inner = s.find("r/r");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->work_self, 1.0);
  EXPECT_EQ(outer->work_total, 2.0);
  EXPECT_EQ(inner->work_total, 1.0);
}

// ---------------------------------------------------------------------------
// Ambient (thread-local) plumbing.

TEST(Ambient, DisabledByDefaultAndNoOp) {
  ASSERT_EQ(obs::ambient().prof, nullptr);
  {
    ProfScope scope("ignored");  // must be a no-op, not a crash
    prof::count("ignored", 42.0);
  }
  EXPECT_EQ(obs::ambient().prof, nullptr);
}

TEST(Ambient, ScopedInstallerRestoresPrevious) {
  Profiler outer_prof;
  ScopedThreadProfiler outer(&outer_prof);
  EXPECT_EQ(obs::ambient().prof, &outer_prof);
  {
    Profiler inner_prof;
    ScopedThreadProfiler inner(&inner_prof);
    EXPECT_EQ(obs::ambient().prof, &inner_prof);
    ProfScope scope("s");
    prof::count("c", 2.0);
  }
  EXPECT_EQ(obs::ambient().prof, &outer_prof);
  EXPECT_EQ(outer_prof.snapshot().counter_total("c"), 0.0);
}

TEST(Ambient, NullInstallKeepsTheEnclosingLeg) {
  Profiler p;
  trace::TraceSink sink;
  obs::Install prof_leg(&p);
  obs::Install sink_leg(&sink);
  {
    obs::Install keep(static_cast<trace::TraceSink*>(nullptr));
    EXPECT_EQ(obs::ambient().sink, &sink);
    EXPECT_EQ(obs::ambient().prof, &p);
  }
  EXPECT_EQ(obs::ambient().sink, &sink);
}

TEST(Ambient, ProfScopeCapturesProfilerAtConstruction) {
  Profiler p;
  std::optional<obs::Install> installed(std::in_place, &p);
  {
    ProfScope scope("s");
    installed.reset();          // removed mid-scope: must still balance
    prof::count("after", 1.0);  // goes nowhere (ambient is now null)
  }
  EXPECT_EQ(p.open_scopes(), 0);
  const Profile s = p.snapshot();
  ASSERT_NE(s.find("s"), nullptr);
  EXPECT_EQ(s.counter_total("after"), 0.0);
}

// ---------------------------------------------------------------------------
// The instrumented pipeline: determinism and zero perturbation.

double run_objective() {
  const topology::Machine m = topology::Machine::gpc(4);
  const int p = m.total_cores();
  const simmpi::Communicator comm(
      m, simmpi::make_layout(m, p, simmpi::LayoutSpec{}));
  const auto objective = core::allgather_objective(
      collectives::AllgatherAlgo::RecursiveDoubling, 1024,
      collectives::OrderFix::None, simmpi::CostConfig{});
  return objective(comm, identity_permutation(p));
}

TEST(Determinism, ProfilingDoesNotPerturbSimulatedCosts) {
  const double bare = run_objective();
  Profiler profiler;
  double profiled = 0.0;
  {
    ScopedThreadProfiler guard(&profiler);
    profiled = run_objective();
  }
  EXPECT_EQ(bare, profiled);  // bitwise-equal latency
  // ... and the profiler actually saw the engine run.
  EXPECT_GT(profiler.snapshot().counter_total("cost.transfers_priced"), 0.0);
}

fault::CampaignConfig tiny_campaign() {
  fault::CampaignConfig cfg;
  cfg.num_nodes = 8;
  cfg.tree.nodes_per_leaf = 4;
  cfg.trials = 1;
  cfg.failure_counts = {0, 2};
  cfg.seed = 7;
  cfg.transient.drop_prob = 0.05;  // exercise the retransmission path
  return cfg;
}

TEST(Determinism, SameSeedCounterExportsAreByteIdentical) {
  // Warm-up outside any profiler so one-time lazy initialization (statics,
  // allocator pools) is not charged to the first profiled run.
  (void)fault::run_fault_campaign(tiny_campaign());

  std::string csv[2], folded[2], speedscope[2];
  for (int run = 0; run < 2; ++run) {
    Profiler profiler;
    {
      ScopedThreadProfiler guard(&profiler);
      (void)fault::run_fault_campaign(tiny_campaign());
    }
    const Profile s = profiler.snapshot();
    csv[run] = flat_csv(s);  // default: no wall columns
    folded[run] = collapsed_stacks(s, "work");
    speedscope[run] = speedscope_json(s, "work", "campaign");
    EXPECT_GT(s.counter_total("cost.transfers_priced"), 0.0);
  }
  EXPECT_EQ(csv[0], csv[1]);
  EXPECT_EQ(folded[0], folded[1]);
  EXPECT_EQ(speedscope[0], speedscope[1]);
}

// ---------------------------------------------------------------------------
// The counting allocator (tarr_prof_memhook is linked into this binary).

TEST(Memhook, TracksRequestedBytesPerScope) {
  ASSERT_TRUE(link_memhook());
  ASSERT_NE(detail::mem_source(), nullptr);

  Profiler profiler;
  {
    ScopedThreadProfiler guard(&profiler);
    ProfScope scope("alloc");
    std::vector<char> buf(1 << 16);
    buf[0] = 1;
    ASSERT_EQ(buf.size(), static_cast<std::size_t>(1 << 16));
  }
  const Profile s = profiler.snapshot();
  EXPECT_TRUE(s.mem_tracked);
  const ProfileEntry* e = s.find("alloc");
  ASSERT_NE(e, nullptr);
  EXPECT_GE(e->mem_bytes_total, 1 << 16);
  EXPECT_GE(e->mem_allocs_total, 1);
}

TEST(Memhook, AllocationCountersAreDeterministic) {
  ASSERT_TRUE(link_memhook());
  const auto body = [] {
    std::vector<std::string> v;
    for (int i = 0; i < 64; ++i) v.push_back(std::string(100, 'x'));
    ASSERT_EQ(v.size(), 64u);
  };
  body();  // warm-up
  std::string csv[2];
  for (int run = 0; run < 2; ++run) {
    Profiler profiler;
    {
      ScopedThreadProfiler guard(&profiler);
      ProfScope scope("alloc");
      body();
    }
    csv[run] = flat_csv(profiler.snapshot());
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(Memhook, DisabledInstrumentationDoesNotAllocate) {
  // With no sink and no profiler installed, the decision and work counters
  // of a mapping run cost no allocation: RDMH places 512 ranks here, and a
  // counter name built per placement would show as 512 allocations.
  ASSERT_TRUE(link_memhook());
  ASSERT_EQ(obs::ambient().sink, nullptr);
  ASSERT_EQ(obs::ambient().prof, nullptr);
  const topology::Machine m = topology::Machine::gpc(64);
  const topology::DistanceMatrix d = topology::extract_distances(m);
  std::vector<int> slots(m.total_cores());
  std::iota(slots.begin(), slots.end(), 0);
  const auto mapper =
      mapping::make_heuristic(mapping::Pattern::RecursiveDoubling);
  Rng rng(1);
  const MemCounters before = detail::mem_source()();
  const std::vector<int> mapped = mapper->map(slots, d, rng);
  const MemCounters after = detail::mem_source()();
  ASSERT_EQ(mapped.size(), 512u);
  EXPECT_LT(after.allocs - before.allocs, 16u);
}

TEST(Memhook, RouterBuildAllocatesPerDestinationNotPerPair) {
  // The forwarding tables cost O(hosts x vertices) in a handful of blocks;
  // a route stored per host pair would need H^2 vector headers alone.
  ASSERT_TRUE(link_memhook());
  constexpr int kHosts = 512;
  Profiler profiler;
  {
    ScopedThreadProfiler guard(&profiler);
    const topology::Machine m = topology::Machine::gpc(kHosts);
    ASSERT_EQ(m.num_nodes(), kHosts);
  }
  const Profile s = profiler.snapshot();
  const ProfileEntry* e = s.find("router-build");
  ASSERT_NE(e, nullptr);
  EXPECT_LT(e->mem_allocs_total, 8 * kHosts);
  EXPECT_LT(e->mem_bytes_total,
            static_cast<long long>(kHosts) * kHosts *
                static_cast<long long>(sizeof(std::vector<LinkId>)));
}

TEST(Memhook, TracedRunAllocatesLessThanOncePerTransfer) {
  // A Tracer keeps each priced transfer as one plain record entry and folds
  // it into distributions looked up by view, so a traced run allocates in
  // amortized vector growth and first uses of a name, not per event.
  ASSERT_TRUE(link_memhook());
  const topology::Machine m = topology::Machine::gpc(64);
  const int p = m.total_cores();
  const simmpi::Communicator comm(m, simmpi::make_layout(m, p, {}));
  trace::Tracer tracer;
  const MemCounters before = detail::mem_source()();
  {
    simmpi::Engine eng(comm, simmpi::CostConfig{}, simmpi::ExecMode::Timed,
                       256, p);
    eng.set_trace_sink(&tracer);
    collectives::run_allgather(
        eng,
        {collectives::AllgatherAlgo::RecursiveDoubling,
         collectives::OrderFix::None},
        identity_permutation(p));
  }
  const MemCounters after = detail::mem_source()();
  const std::size_t transfers = tracer.record().transfers.size();
  ASSERT_EQ(transfers, 9u * 512u);  // log2(512) stages of 512 transfers
  EXPECT_LT(after.allocs - before.allocs, transfers);
}

// ---------------------------------------------------------------------------
// Exporters.

TEST(Export, FlatCsvSchemaAndContent) {
  const Profile s = small_tree().snapshot();
  const std::string csv = flat_csv(s);
  EXPECT_EQ(csv.substr(0, csv.find('\n')), "path,depth,calls,metric,self,total");
  EXPECT_NE(csv.find("(root),0,1,work,"), std::string::npos);
  EXPECT_NE(csv.find("a,1,2,x,8,10"), std::string::npos);
  EXPECT_NE(csv.find("a/b,2,1,y,1,1"), std::string::npos);
  // Wall-clock rows only on request.
  EXPECT_EQ(csv.find("wall_seconds"), std::string::npos);
  ExportOptions wall;
  wall.include_wall = true;
  EXPECT_NE(flat_csv(s, wall).find("wall_seconds"), std::string::npos);
}

TEST(Export, CollapsedStacksWeightsBySelf) {
  const std::string folded = collapsed_stacks(small_tree().snapshot(), "work");
  EXPECT_NE(folded.find("(root);a 8\n"), std::string::npos);
  EXPECT_NE(folded.find("(root);a;b 3\n"), std::string::npos);
  EXPECT_NE(folded.find("(root) 7\n"), std::string::npos);
}

TEST(Export, SpeedscopeJsonIsWellFormedAndBalanced) {
  const std::string json =
      speedscope_json(small_tree().snapshot(), "work", "unit");
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("$schema"), std::string::npos);
  EXPECT_NE(json.find("evented"), std::string::npos);
  // Every open event has a matching close event.
  EXPECT_EQ(count_occurrences(json, "\"type\": \"O\""),
            count_occurrences(json, "\"type\": \"C\""));
  EXPECT_GT(count_occurrences(json, "\"type\": \"O\""), 0);
}

TEST(Export, PublishBridgesTotalsIntoMetricsRegistry) {
  trace::MetricsRegistry reg;
  publish(small_tree().snapshot(), reg);
  const std::string csv = reg.csv();
  EXPECT_NE(csv.find("counter,prof.x,,10,"), std::string::npos);
  EXPECT_NE(csv.find("counter,prof.z,,7,"), std::string::npos);
  EXPECT_NE(csv.find("counter,prof.scope.a.calls,,2,"), std::string::npos);
  EXPECT_NE(csv.find("counter,prof.scope.a.work,,11,"), std::string::npos);
}

TEST(Export, EnsureWritableFailsFastOnBadPaths) {
  EXPECT_THROW(ensure_writable("/nonexistent-dir/prof.csv"), Error);
  EXPECT_NO_THROW(ensure_writable(testing::TempDir() + "prof_probe.csv"));
}

}  // namespace
}  // namespace tarr::prof
