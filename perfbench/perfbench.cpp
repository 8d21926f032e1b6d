// Paper-scale benchmark program: one workload per process, single thread,
// closed loop (each op starts only after the previous one returns).
//
//   tarr_perfbench --workload osu_flat_4k --seed 1 --seconds 20 --trace 0
//                  [--reference perfbench/reference.tsv]
//                  [--tmp-dir .bench_build/tmp]
//   tarr_perfbench --make-reference perfbench/reference.tsv
//
// Every op's output is checked against the committed reference (simulated
// latency in us, or weighted mapping cost), and every mapping against
// bijectivity.  With --trace 0 the program prints the end-to-end metrics; with
// --trace 1 it times each layer from outside, by wrapping the public calls
// into that layer in benchmark-side spans, and prints the per-layer metrics.
// Nothing under src/ is instrumented for this.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "bench/appmodel.hpp"
#include "bench/sweep.hpp"
#include "collectives/selector.hpp"
#include "common/rng.hpp"
#include "core/framework.hpp"
#include "core/topoallgather.hpp"
#include "mapping/comparators.hpp"
#include "mapping/mapcost.hpp"
#include "prof/profiler.hpp"
#include "simmpi/layout.hpp"
#include "tlog/writer.hpp"
#include "trace/tracer.hpp"

namespace {

using namespace tarr;
using collectives::AllgatherAlgo;
using collectives::IntraAlgo;
using collectives::OrderFix;
using core::MapperKind;
using mapping::Pattern;

using Clock = std::chrono::steady_clock;

/// Wall seconds since the first call: bounds the length of a run.
double now_s() {
  static const Clock::time_point t0 = Clock::now();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds this thread has used.  Ops, set-ups and spans are timed with
/// it rather than with the wall clock: they are single-threaded and never
/// block, so it is their wall time minus the time the host did not run this
/// vCPU at all (steal).  On the shared 4-vCPU host the benchmark was tuned
/// on, steal reached half of the wall time for minutes at a time.
double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ----------------------------------------------------------- host speed --

/// Fixed work of the benchmark's own, run between ops to follow how fast the
/// host runs this vCPU at the moment.  CPU time drops steal, but not a
/// slower vCPU: on the shared 4-vCPU host the benchmark was tuned on, other
/// tenants (SMT siblings, clock, memory traffic) made the same code up to
/// 1.7x slower, in swings from a fraction of a second to minutes.  Each op's
/// time is scaled by the probes run just before and just after it.  With
/// each input summarised by its fastest scaled time (see summarize), this
/// brought the interquartile spread of the op metrics over ten seeds there
/// from 13-43% of the median to 2-6% in most sets of runs.  Some slowdowns
/// still pass the probe unseen: in one set, three app_hier_1k runs in a row
/// ran 1.4x slower while the probe read its usual time.  The probe is a
/// streaming pass over 8 MB (memory bandwidth) and a sort of 16K keys
/// (branches in cache); of the kernels tried (pointer chases in and out of
/// cache, random gathers, std::map churn, pure arithmetic) this pair
/// followed all three workloads best.  Nothing under src/ runs in it, so a
/// library change cannot move it.
class HostProbe {
 public:
  /// Median probe CPU seconds on the host the benchmark was tuned on: times
  /// are reported at that host's usual speed.
  static constexpr double kReferenceS = 2.5e-3;
  /// Probes on each side of an op that set its speed.
  static constexpr std::size_t kWindow = 4;

  HostProbe() : stream_(kStream), keys_(kKeys) {
    Rng rng(0x70726f6265ull);
    for (auto& s : stream_) s = rng.next_u64();
    for (auto& k : keys_) k = rng.next_u64();
  }

  /// Run the probe once and record its CPU seconds.
  void run() {
    const double t0 = cpu_s();
    std::uint64_t acc = 0;
    for (std::uint64_t s : stream_) acc ^= s;
    std::vector<std::uint64_t> k = keys_;
    std::sort(k.begin(), k.end());
    sink_ = sink_ + acc + k[kKeys / 2];
    times_.push_back(cpu_s() - t0);
  }

  /// Number of probes run so far; an op run now lies between probe
  /// count() - 1 and probe count().
  std::size_t count() const { return times_.size(); }

  /// Host speed relative to the reference over probes [from, to): the
  /// reference probe time over their median.  A time measured over the same
  /// interval, multiplied by this, is the time on the reference host.
  double speed(std::size_t from, std::size_t to) const {
    std::vector<double> v(times_.begin() + from, times_.begin() + to);
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return kReferenceS / v[v.size() / 2];
  }
  /// Speed for an op run when count() was `at`: over the kWindow probes on
  /// each side of it, kept within probes [lo, hi).
  double speed_at(std::size_t at, std::size_t lo, std::size_t hi) const {
    return speed(std::max(lo, at - std::min(at, kWindow)),
                 std::min(hi, at + kWindow));
  }

 private:
  static constexpr std::size_t kStream = std::size_t{1} << 20;  // 8 MB
  static constexpr std::size_t kKeys = std::size_t{1} << 14;

  std::vector<std::uint64_t> stream_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> times_;
  volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------- spans --

/// Benchmark-side trace: one span per wrapped public call (name, start, end,
/// parent; `op` is the op id, or -1-k for set-up repetition k).  Kept in
/// memory and written out when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    long op = 0;
  };

  void set_op(long op) { op_ = op; }

  int open(const char* name) {
    spans_.push_back(Span{name, cpu_s(), 0.0, cur_, op_});
    cur_ = static_cast<int>(spans_.size()) - 1;
    return cur_;
  }
  void close(int idx) {
    spans_[idx].end = cpu_s();
    cur_ = spans_[idx].parent;
  }
  /// A closed child of span `parent` whose duration the library measured
  /// itself, in wall seconds (the mapper run inside TopoAllgather's
  /// internal reorder, which no public call exposes).  It is placed at the
  /// end of its parent.
  void add_measured_child(int parent, const char* name, double seconds) {
    const double end = spans_[parent].end;
    spans_.push_back(Span{name, end - seconds, end, parent, spans_[parent].op});
  }

  /// Self seconds (duration minus the children's durations) and call count
  /// per span name.
  std::map<std::string, std::pair<double, long>> self_times() const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    std::map<std::string, std::pair<double, long>> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& slot = out[spans_[i].name];
      slot.first += spans_[i].end - spans_[i].start - child[i];
      slot.second += 1;
    }
    return out;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "id\tparent\top\tname\tstart_s\tend_s\n";
    char buf[64];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << i << '\t' << s.parent << '\t' << s.op << '\t' << s.name;
      std::snprintf(buf, sizeof buf, "\t%.9f\t%.9f\n", s.start, s.end);
      out << buf;
    }
  }

 private:
  std::vector<Span> spans_;
  int cur_ = -1;
  long op_ = 0;
};

/// RAII span; a null log makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), idx_(log != nullptr ? log->open(name) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Close early; returns the span index (-1 untraced).
  int close() {
    if (log_ != nullptr && !closed_) log_->close(idx_);
    closed_ = true;
    return idx_;
  }

 private:
  SpanLog* log_;
  int idx_;
  bool closed_ = false;
};

// ------------------------------------------------------------ reference --

/// Expected output per input key, loaded from the committed reference file
/// ("<key>\t<value>" lines).  Values must match to a relative 1e-9, which
/// admits floating-point reassociation but nothing that changes a result.
class Reference {
 public:
  /// Entries of `workload` ("<workload>:<key>" in the file).
  static Reference load(const std::string& path, const std::string& workload) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read reference " + path);
    Reference r;
    const std::string prefix = workload + ":";
    std::string key;
    double v = 0.0;
    while (in >> key >> v)
      if (key.rfind(prefix, 0) == 0) r.values_[key.substr(prefix.size())] = v;
    if (r.values_.empty())
      throw std::runtime_error("no " + workload + " entries in " + path);
    return r;
  }
  bool matches(const std::string& key, double v) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return false;
    const double e = it->second;
    return std::abs(v - e) <= 1e-9 * std::max(std::abs(v), std::abs(e));
  }

 private:
  std::map<std::string, double> values_;
};

// ------------------------------------------------------------ workloads --

/// Outcome of one checked output: its reference key, the value the library
/// produced, and whether the mapping behind it is a bijection.
struct Output {
  std::string key;
  double value = 0.0;
  bool bijective = true;
  double seconds = 0.0;  ///< CPU seconds of the library call (ops only)
};

/// Exact work done by one input, from a counting TraceSink.
struct WorkCount {
  long long stages = 0;
  long long transfers = 0;
  long long reorders = 0;
};

/// Counts engine stages, priced transfers and mapping runs ("map:*" wall
/// spans) reaching it through the public set_trace_sink hooks.
class CountingSink final : public trace::TraceSink {
 public:
  WorkCount n;
  void on_stage(const trace::StageEvent&) override { ++n.stages; }
  void on_transfer(const trace::TransferEvent&) override { ++n.transfers; }
  void on_wall_span(const trace::WallSpan& s) override {
    if (s.name.rfind("map:", 0) == 0) ++n.reorders;
  }
};

/// Weighted mapping cost of one reorder: after, and for the original
/// communicator (before).
struct CostPair {
  double after = 0.0;
  double before = 0.0;
};

bool same_core_set(std::vector<CoreId> a, std::vector<CoreId> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

/// The input space of a workload is finite and enumerable (0..inputs-1) so
/// that the reference holds every value an op can produce.  The op order is
/// drawn from the seed by dealing a shuffled deck (inputs repeated by their
/// weight) without replacement, so short runs keep the intended mix.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Everything before the first timed op: machine, distances,
  /// communicators and warm-up reorders.
  virtual void setup(SpanLog* log) = 0;
  /// Outputs of the set-up (warm-up reorders) to check, with their costs.
  virtual std::vector<Output> setup_outputs(std::vector<CostPair>* costs) = 0;

  virtual int num_inputs() const = 0;
  /// Input ids, each repeated by its weight in the op mix.
  virtual std::vector<int> deck() const = 0;
  /// Run input `in` once; `sink` (nullable) receives the library's trace.
  virtual Output run(int in, SpanLog* log, trace::TraceSink* sink) = 0;
  /// Weighted mapping cost of input `in`'s communicator before the
  /// reorder, for workloads whose ops are reorders.
  virtual std::optional<double> cost_before(int in) {
    (void)in;
    return std::nullopt;
  }
  /// Inputs whose counts are recorded (all, or a seeded sample of ops
  /// when every op is a full mapping run).
  virtual std::vector<int> counted_inputs(std::uint64_t seed) const {
    (void)seed;
    std::vector<int> all(num_inputs());
    std::iota(all.begin(), all.end(), 0);
    return all;
  }
  /// Distinct reorders the warm-up created.
  virtual long long warmup_reorders() = 0;
  /// Bytes of distance matrices held, in MB (1e6 bytes).
  virtual double matrix_mb() const = 0;
  /// True when ops price collectives through TopoAllgather (a reorder
  /// served from its cache counts as a hit).
  virtual bool cached_ops() const { return true; }
};

class OpStream {
 public:
  OpStream(std::vector<int> deck, std::uint64_t seed)
      : deck_(std::move(deck)), rng_(seed) {}
  int next() {
    if (pos_ == deck_.size()) pos_ = 0;
    if (pos_ == 0) {
      for (std::size_t i = deck_.size(); i > 1; --i)
        std::swap(deck_[i - 1], deck_[rng_.next_below(i)]);
    }
    return deck_[pos_++];
  }

 private:
  std::vector<int> deck_;
  Rng rng_;
  std::size_t pos_ = 0;
};

std::string fmt_key(const std::vector<std::string>& parts) {
  std::string k;
  for (const auto& p : parts) k += (k.empty() ? "" : "/") + p;
  return k;
}

/// Common machinery of the two TopoAllgather workloads: a set of
/// configured paths ("variants"), warmed up so that every reorder exists
/// before the first timed op, and ops that each price one allgather.
class AllgatherWorkload : public Workload {
 public:
  struct Variant {
    std::string name;  ///< "<layout>/<config>"
    simmpi::LayoutSpec layout;
    core::TopoAllgatherConfig cfg;
  };

  void setup(SpanLog* log) override {
    {
      Scope s(log, "topology.build");
      machine_.emplace(topology::Machine::gpc(nodes_));
    }
    fw_.emplace(*machine_);
    extract_distances(log);
    {
      Scope s(log, "simmpi.comm_build");
      for (const Variant& v : variants_)
        paths_.push_back(std::make_unique<core::TopoAllgather>(
            *fw_,
            simmpi::Communicator(*machine_,
                                 simmpi::make_layout(*machine_, procs_,
                                                     v.layout)),
            v.cfg));
    }
    // Warm-up: create every reorder an op can need (one per selected
    // algorithm); the MVAPICH-like default has its own internal
    // block->cyclic reorder, created on its first recursive-doubling call.
    for (std::size_t v = 0; v < paths_.size(); ++v) {
      core::TopoAllgather& tg = *paths_[v];
      for (Bytes msg : {sizes_.front(), sizes_.back()}) {
        if (variants_[v].cfg.mapper == MapperKind::None) {
          Scope s(log, "simmpi.eval");
          tg.latency(msg);
          continue;
        }
        Scope s(log, "core.reorder");
        const double before = tg.mapping_seconds();
        const core::ReorderedComm& rc = tg.reordered_for(msg);
        const int idx = s.close();
        if (log != nullptr && tg.mapping_seconds() != before)
          log->add_measured_child(idx, mapper_span(variants_[v].cfg.mapper),
                                  rc.mapping_seconds);
      }
    }
  }

  std::vector<Output> setup_outputs(std::vector<CostPair>* costs) override {
    std::vector<Output> out;
    for (std::size_t v = 0; v < paths_.size(); ++v) {
      if (variants_[v].cfg.mapper == MapperKind::None) continue;
      core::TopoAllgather& tg = *paths_[v];
      for (Bytes msg : {sizes_.front(), sizes_.back()}) {
        const AllgatherAlgo algo = leader_algo(msg);
        const core::ReorderedComm& rc = tg.reordered_for(msg);
        const CostPair c = reorder_cost(algo, tg.original_comm(), rc.comm);
        if (costs != nullptr) costs->push_back(c);
        out.push_back(Output{
            fmt_key({"cost", variants_[v].name,
                     algo == AllgatherAlgo::RecursiveDoubling ? "rd"
                                                              : "ring"}),
            c.after,
            same_core_set(tg.original_comm().rank_to_core(),
                          rc.comm.rank_to_core())});
      }
    }
    return out;
  }

  int num_inputs() const override {
    return static_cast<int>(variants_.size() * sizes_.size());
  }

  Output run(int in, SpanLog* log, trace::TraceSink* sink) override {
    core::TopoAllgather& tg = *paths_[in / sizes_.size()];
    const Bytes msg = sizes_[in % sizes_.size()];
    // Installed on every op (nullptr when untraced), so a sink never
    // outlives the op it was installed for, even when the op throws.
    tg.set_trace_sink(sink);
    const double t0 = cpu_s();
    Usec lat = 0.0;
    {
      Scope s(log, "simmpi.eval");
      lat = tg.latency(msg);
    }
    return Output{key_of(in), lat, true, cpu_s() - t0};
  }

  long long warmup_reorders() override {
    std::vector<const core::ReorderedComm*> seen;
    for (std::size_t v = 0; v < paths_.size(); ++v) {
      if (variants_[v].cfg.mapper == MapperKind::None) continue;
      for (Bytes msg : sizes_) seen.push_back(&paths_[v]->reordered_for(msg));
    }
    std::sort(seen.begin(), seen.end());
    return std::unique(seen.begin(), seen.end()) - seen.begin();
  }

 protected:
  AllgatherWorkload(int nodes, std::vector<Variant> variants,
                    std::vector<Bytes> sizes)
      : nodes_(nodes),
        procs_(nodes * 8),
        variants_(std::move(variants)),
        sizes_(std::move(sizes)) {}

  virtual void extract_distances(SpanLog* log) = 0;
  /// Algorithm the (leader level of the) collective runs for `msg`.
  virtual AllgatherAlgo leader_algo(Bytes msg) const = 0;
  /// Cost of the reorder at the level the mapper worked on.
  virtual CostPair reorder_cost(AllgatherAlgo algo,
                                const simmpi::Communicator& before,
                                const simmpi::Communicator& after) = 0;

  std::string key_of(int in) const {
    return fmt_key({"lat", variants_[in / sizes_.size()].name,
                    std::to_string(sizes_[in % sizes_.size()])});
  }

  static const char* mapper_span(MapperKind k) {
    return k == MapperKind::ScotchLike ? "mapping.scotch"
           : k == MapperKind::GreedyGraph ? "mapping.greedy"
                                          : "mapping.heuristic";
  }

  static Pattern pattern_of(AllgatherAlgo a) {
    return a == AllgatherAlgo::RecursiveDoubling ? Pattern::RecursiveDoubling
                                                 : Pattern::Ring;
  }

  /// Pattern graph used only by the output check (cached per size/algo).
  const graph::WeightedGraph& check_graph(AllgatherAlgo a, int p) {
    auto& g = graphs_[{static_cast<int>(a), p}];
    if (!g) g.emplace(mapping::build_pattern_graph(pattern_of(a), p));
    return *g;
  }

  int nodes_;
  int procs_;
  std::vector<Variant> variants_;
  std::vector<Bytes> sizes_;
  std::optional<topology::Machine> machine_;
  std::optional<core::ReorderFramework> fw_;
  std::vector<std::unique_ptr<core::TopoAllgather>> paths_;
  std::map<std::pair<int, int>, std::optional<graph::WeightedGraph>> graphs_;
};

/// osu_flat_4k: Fig 3 scale.  GPC with 512 nodes / 4,096 ranks, the four
/// initial layouts x {MVAPICH-like default, Hrstc+initComm, Hrstc+endShfl,
/// Scotch+initComm}; one op = one TopoAllgather::latency at an OSU size
/// (1 B..256 KB).  Steady state is almost all simmpi pricing.
class OsuFlat final : public AllgatherWorkload {
 public:
  OsuFlat()
      : AllgatherWorkload(512, make_variants(),
                          bench::osu_message_sizes(1, 256 * 1024)) {}

  std::vector<int> deck() const override {
    std::vector<int> d(num_inputs());
    std::iota(d.begin(), d.end(), 0);
    return d;
  }
  double matrix_mb() const override {
    return static_cast<double>(procs_) * procs_ * sizeof(float) / 1e6;
  }

 private:
  static std::vector<Variant> make_variants() {
    struct Cfg {
      const char* name;
      MapperKind mapper;
      OrderFix fix;
    };
    const Cfg cfgs[] = {
        {"default", MapperKind::None, OrderFix::InitComm},
        {"hrstc-initcomm", MapperKind::Heuristic, OrderFix::InitComm},
        {"hrstc-endshfl", MapperKind::Heuristic, OrderFix::EndShuffle},
        {"scotch-initcomm", MapperKind::ScotchLike, OrderFix::InitComm},
    };
    std::vector<Variant> out;
    for (const auto& layout : simmpi::all_layouts())
      for (const Cfg& c : cfgs) {
        core::TopoAllgatherConfig cfg;
        cfg.mapper = c.mapper;
        cfg.fix = c.fix;
        out.push_back(Variant{simmpi::to_string(layout) + "/" + c.name,
                              layout, cfg});
      }
    return out;
  }

  void extract_distances(SpanLog* log) override {
    Scope s(log, "distance.extract");
    fw_->distances();
  }
  AllgatherAlgo leader_algo(Bytes msg) const override {
    return collectives::select_allgather_algo(procs_, msg);
  }
  CostPair reorder_cost(AllgatherAlgo algo, const simmpi::Communicator& before,
                        const simmpi::Communicator& after) override {
    const auto& g = check_graph(algo, procs_);
    const auto& d = fw_->distances();
    return CostPair{mapping::mapping_cost(g, after.rank_to_core(), d),
                    mapping::mapping_cost(g, before.rank_to_core(), d)};
  }
};

/// app_hier_1k: Fig 6 scale.  GPC with 128 nodes / 1,024 ranks, block-bunch
/// and block-scatter, hierarchical allgather with binomial or linear
/// intra-node phases and the default, heuristic or Scotch-like mapper.  One
/// op = one call of the 3,058-call application trace, in seeded order.
class AppHier final : public AllgatherWorkload {
 public:
  AppHier() : AllgatherWorkload(128, make_variants(), trace_sizes()) {}

  std::vector<int> deck() const override {
    std::vector<int> d;
    const auto trace = bench::default_app_trace();
    for (int v = 0; v < static_cast<int>(variants_.size()); ++v)
      for (std::size_t s = 0; s < trace.size(); ++s)
        d.insert(d.end(), trace[s].calls,
                 v * static_cast<int>(sizes_.size()) + static_cast<int>(s));
    return d;
  }
  double matrix_mb() const override {
    const double n = node_dist_ ? node_dist_->size() : 0;
    const double c = intra_dist_ ? intra_dist_->size() : 0;
    return (n * n + c * c) * sizeof(float) / 1e6;
  }

 private:
  static std::vector<Bytes> trace_sizes() {
    std::vector<Bytes> s;
    for (const auto& e : bench::default_app_trace()) s.push_back(e.msg);
    return s;
  }
  static std::vector<Variant> make_variants() {
    const simmpi::LayoutSpec layouts[] = {
        {simmpi::NodeOrder::Block, simmpi::SocketOrder::Bunch},
        {simmpi::NodeOrder::Block, simmpi::SocketOrder::Scatter}};
    std::vector<Variant> out;
    for (const auto& layout : layouts)
      for (IntraAlgo intra : {IntraAlgo::Binomial, IntraAlgo::Linear})
        for (MapperKind m : {MapperKind::None, MapperKind::Heuristic,
                             MapperKind::ScotchLike}) {
          core::TopoAllgatherConfig cfg;
          cfg.hierarchical = true;
          cfg.intra = intra;
          cfg.mapper = m;
          cfg.fix = OrderFix::InitComm;
          out.push_back(Variant{
              fmt_key({simmpi::to_string(layout),
                       intra == IntraAlgo::Binomial ? "binomial" : "linear",
                       core::to_string(m)}),
              layout, cfg});
        }
    return out;
  }

  void extract_distances(SpanLog* log) override {
    Scope s(log, "distance.extract");
    node_dist_.emplace(topology::extract_node_distances(*machine_));
    intra_dist_.emplace(topology::extract_intranode_distances(*machine_));
  }
  AllgatherAlgo leader_algo(Bytes msg) const override {
    const AllgatherAlgo a =
        collectives::select_allgather_algo(nodes_, msg * 8);
    return a == AllgatherAlgo::Bruck ? AllgatherAlgo::Ring : a;
  }
  /// Leader level: node blocks on the node-distance matrix.
  CostPair reorder_cost(AllgatherAlgo algo, const simmpi::Communicator& before,
                        const simmpi::Communicator& after) override {
    const auto& g = check_graph(algo, nodes_);
    auto nodes_of = [&](const simmpi::Communicator& c) {
      std::vector<int> n(nodes_);
      for (int b = 0; b < nodes_; ++b) n[b] = c.node_of(b * 8);
      return n;
    };
    return CostPair{mapping::mapping_cost(g, nodes_of(after), *node_dist_),
                    mapping::mapping_cost(g, nodes_of(before), *node_dist_)};
  }

  std::optional<topology::DistanceMatrix> node_dist_;
  std::optional<topology::DistanceMatrix> intra_dist_;
};

/// Mapper handed to ReorderFramework::reorder_with in reorder_7k.  It fixes
/// the op's tie-break seed and, when traced, times the layer calls a
/// library mapper makes internally by making the same public calls itself:
/// build_pattern_graph, then scotch_like_map / greedy_graph_map, or the
/// heuristic's checked_map.  The reference check proves the traced path
/// returns the library mapper's result.
class OpMapper final : public mapping::Mapper {
 public:
  enum class Kind { Heuristic, Scotch, Greedy };

  OpMapper(Kind kind, Pattern pattern, std::uint64_t tie_seed, SpanLog* log)
      : kind_(kind), pattern_(pattern), tie_seed_(tie_seed), log_(log) {
    inner_ = kind == Kind::Heuristic ? mapping::make_heuristic(pattern)
             : kind == Kind::Scotch
                 ? mapping::make_scotch_like_mapper(pattern)
                 : mapping::make_greedy_graph_mapper(pattern);
  }

  std::string name() const override { return inner_->name(); }

  std::vector<int> map(const std::vector<int>& rank_to_slot,
                       const topology::DistanceMatrix& d,
                       Rng&) const override {
    Rng rng(tie_seed_);
    if (log_ == nullptr) return inner_->map(rank_to_slot, d, rng);
    const int p = static_cast<int>(rank_to_slot.size());
    switch (kind_) {
      case Kind::Heuristic: {
        Scope s(log_, "mapping.heuristic");
        return inner_->checked_map(rank_to_slot, d, rng);
      }
      case Kind::Scotch: {
        // ScotchLikeMapper maps the structure only: unit edge weights.
        graph::WeightedGraph flat(p);
        {
          Scope s(log_, "graph.pattern_build");
          const graph::WeightedGraph g =
              mapping::build_pattern_graph(pattern_, p);
          for (const auto& e : g.edges()) flat.add_edge(e.u, e.v, 1.0);
          flat.finalize();
        }
        Scope s(log_, "mapping.scotch");
        return mapping::scotch_like_map(flat, rank_to_slot, rng);
      }
      case Kind::Greedy: {
        std::optional<graph::WeightedGraph> g;
        {
          Scope s(log_, "graph.pattern_build");
          g.emplace(mapping::build_pattern_graph(pattern_, p));
        }
        Scope s(log_, "mapping.greedy");
        return mapping::greedy_graph_map(*g, rank_to_slot, d, rng);
      }
    }
    return {};
  }

 private:
  Kind kind_;
  Pattern pattern_;
  std::uint64_t tie_seed_;
  SpanLog* log_;
  std::unique_ptr<mapping::Mapper> inner_;
};

/// reorder_7k: Fig 7 scale.  Full GPC, 960 nodes x 8 cores = 7,680 ranks;
/// one op = one ReorderFramework::reorder_with(comm, mapper) over a seeded
/// (layout, pattern, mapper, tie-break seed).  Recursive doubling runs on a
/// 4,096-rank communicator of the same machine (it needs a power of two).
/// No collective is priced.
class Reorder7k final : public Workload {
 public:
  static constexpr int kNodes = 960;
  static constexpr int kTieSeeds = 2;
  static constexpr Pattern kPatterns[] = {
      Pattern::Ring, Pattern::BinomialBcast, Pattern::BinomialGather,
      Pattern::Bruck, Pattern::RecursiveDoubling};
  static constexpr OpMapper::Kind kMappers[] = {
      OpMapper::Kind::Heuristic, OpMapper::Kind::Scotch,
      OpMapper::Kind::Greedy};
  static constexpr const char* kMapperNames[] = {"heuristic", "scotch-like",
                                                 "greedy-graph"};

  void setup(SpanLog* log) override {
    {
      Scope s(log, "topology.build");
      machine_.emplace(topology::Machine::gpc(kNodes));
    }
    fw_.emplace(*machine_);
    {
      Scope s(log, "distance.extract");
      fw_->distances();
    }
    Scope s(log, "simmpi.comm_build");
    // comms_[2 * layout]: all 7,680 ranks; comms_[2 * layout + 1]: 4,096.
    for (const auto& layout : simmpi::all_layouts())
      for (int p : {machine_->total_cores(), 4096})
        comms_.emplace_back(*machine_,
                            simmpi::make_layout(*machine_, p, layout));
  }
  std::vector<Output> setup_outputs(std::vector<CostPair>*) override {
    return {};
  }

  int num_inputs() const override {
    return static_cast<int>(simmpi::all_layouts().size() * 5 * 3 * kTieSeeds);
  }
  std::vector<int> deck() const override {
    std::vector<int> d(num_inputs());
    std::iota(d.begin(), d.end(), 0);
    return d;
  }

  Output run(int in, SpanLog* log, trace::TraceSink* sink) override {
    const Op op = decode(in);
    const simmpi::Communicator& comm = comm_for(op);
    OpMapper mapper(kMappers[op.mapper], kPatterns[op.pattern],
                    static_cast<std::uint64_t>(op.tie + 1), log);
    fw_->set_trace_sink(sink);  // every op, as in AllgatherWorkload::run
    const double t0 = cpu_s();
    std::optional<core::ReorderedComm> rc;
    {
      Scope s(log, "core.reorder");
      rc.emplace(fw_->reorder_with(comm, mapper));
    }
    const double seconds = cpu_s() - t0;
    const bool bij =
        same_core_set(comm.rank_to_core(), rc->comm.rank_to_core());
    const double cost =
        bij ? mapping::mapping_cost(check_graph(op, comm.size()),
                                    rc->comm.rank_to_core(), fw_->distances())
            : std::numeric_limits<double>::quiet_NaN();
    return Output{key_of(in), cost, bij, seconds};
  }

  std::optional<double> cost_before(int in) override {
    const Op op = decode(in);
    const simmpi::Communicator& comm = comm_for(op);
    return mapping::mapping_cost(check_graph(op, comm.size()),
                                 comm.rank_to_core(), fw_->distances());
  }
  /// Each op is a full mapping run: count one shuffled round of the
  /// (pattern, mapper) pairs, layout and tie seed drawn from the seed.
  std::vector<int> counted_inputs(std::uint64_t seed) const override {
    Rng rng(mix_seed(seed, 0x636f756e74ull, 0));
    std::vector<int> out;
    for (int p = 0; p < 5; ++p)
      for (int m = 0; m < 3; ++m) {
        const int layout = static_cast<int>(rng.next_below(4));
        const int tie = static_cast<int>(rng.next_below(kTieSeeds));
        out.push_back(((layout * 5 + p) * 3 + m) * kTieSeeds + tie);
      }
    return out;
  }
  long long warmup_reorders() override { return 0; }
  double matrix_mb() const override {
    const double n = machine_ ? machine_->total_cores() : 0;
    return n * n * sizeof(float) / 1e6;
  }
  bool cached_ops() const override { return false; }

 private:
  struct Op {
    int layout, pattern, mapper, tie;
  };
  static Op decode(int in) {
    Op op{};
    op.tie = in % kTieSeeds;
    in /= kTieSeeds;
    op.mapper = in % 3;
    in /= 3;
    op.pattern = in % 5;
    op.layout = in / 5;
    return op;
  }
  const simmpi::Communicator& comm_for(const Op& op) const {
    const bool rd = kPatterns[op.pattern] == Pattern::RecursiveDoubling;
    return comms_[op.layout * 2 + (rd ? 1 : 0)];
  }
  std::string key_of(int in) const {
    const Op op = decode(in);
    return fmt_key({"cost",
                    simmpi::to_string(simmpi::all_layouts()[op.layout]),
                    mapping::to_string(kPatterns[op.pattern]),
                    kMapperNames[op.mapper],
                    "tie" + std::to_string(op.tie + 1)});
  }
  const graph::WeightedGraph& check_graph(const Op& op, int p) {
    auto& g = graphs_[op.pattern];
    if (!g) g.emplace(mapping::build_pattern_graph(kPatterns[op.pattern], p));
    return *g;
  }

  std::optional<topology::Machine> machine_;
  std::optional<core::ReorderFramework> fw_;
  std::vector<simmpi::Communicator> comms_;
  std::map<int, std::optional<graph::WeightedGraph>> graphs_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "osu_flat_4k") return std::make_unique<OsuFlat>();
  if (name == "reorder_7k") return std::make_unique<Reorder7k>();
  if (name == "app_hier_1k") return std::make_unique<AppHier>();
  return nullptr;
}

// ----------------------------------------------------------------- main --

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference = "perfbench/reference.tsv";
  std::string tmp_dir = ".bench_build/tmp";
  std::string make_reference;
};

/// Failure accounting shared by set-up checks and ops.
struct Tally {
  long attempted = 0;
  long failed = 0;
  void check(const Reference& ref, const Output& o) {
    ++attempted;
    if (!o.bijective || !ref.matches(o.key, o.value)) {
      if (failed < 5)
        std::fprintf(stderr, "FAILED %s: got %.17g%s\n", o.key.c_str(),
                     o.value, o.bijective ? "" : " (not a bijection)");
      ++failed;
    }
  }
  void error(const std::exception& e) {
    ++attempted;
    if (failed < 5) std::fprintf(stderr, "FAILED op: %s\n", e.what());
    ++failed;
  }
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Times of one input, each with the probe count when its op ran, thinned to
/// at most kMax samples spread evenly over the run, so that memory (and
/// peak_rss_mb) does not grow with the number of ops a run completes.
class Samples {
 public:
  struct Sample {
    double seconds;
    std::size_t probe_at;
  };
  static constexpr std::size_t kMax = 256;
  void add(double seconds, std::size_t probe_at) {
    ++ops_;
    if (ops_ % stride_ != 0) return;
    v_.push_back(Sample{seconds, probe_at});
    if (v_.size() == kMax) {  // keep every other sample, halve the rate
      for (std::size_t i = 0; i < kMax / 2; ++i) v_[i] = v_[2 * i + 1];
      v_.resize(kMax / 2);
      stride_ *= 2;
    }
  }
  long ops() const { return ops_; }
  const std::vector<Sample>& values() const { return v_; }

 private:
  std::vector<Sample> v_;
  long ops_ = 0;
  long stride_ = 1;
};

/// One timed closed loop: per-input samples and the same times scaled to
/// the reference host speed, the total raw op time, and the median host
/// speed over the loop.
struct Loop {
  std::vector<Samples> by_input;
  std::vector<std::vector<double>> scaled;
  long ops = 0;
  double seconds = 0.0;
  double speed = 1.0;
};

/// Op CPU seconds between two host probes (a probe takes ~2.5 ms).
constexpr double kProbeEveryS = 0.05;

Loop timed_loop(Workload& w, std::uint64_t seed, double seconds,
                const Reference& ref, Tally& tally, SpanLog* log,
                HostProbe& probe) {
  OpStream stream(w.deck(), seed);
  Loop loop;
  loop.by_input.resize(w.num_inputs());
  const std::size_t first_probe = probe.count();
  probe.run();
  double since_probe = 0.0;
  const double t0 = now_s();
  while (now_s() - t0 < seconds) {
    const int in = stream.next();
    if (log != nullptr) log->set_op(loop.ops + 1);
    try {
      const Output o = w.run(in, log, nullptr);
      loop.by_input[in].add(o.seconds, probe.count());
      ++loop.ops;
      loop.seconds += o.seconds;
      since_probe += o.seconds;
      tally.check(ref, o);
    } catch (const std::exception& e) {
      tally.error(e);
    }
    if (since_probe >= kProbeEveryS) {
      probe.run();
      since_probe = 0.0;
    }
  }
  probe.run();
  const std::size_t end_probe = probe.count();
  loop.speed = probe.speed(first_probe, end_probe);
  loop.scaled.resize(w.num_inputs());
  for (int in = 0; in < w.num_inputs(); ++in)
    for (const Samples::Sample& s : loop.by_input[in].values())
      loop.scaled[in].push_back(
          s.seconds * probe.speed_at(s.probe_at, first_probe, end_probe));
  return loop;
}

/// Op times over the op mix.  Ops of one input do the same work, so each
/// input is summarised by the fastest of its scaled times over the run and
/// weighted by its share of the deck; throughput and percentiles are taken
/// over that distribution.  Other tenants of a shared host only ever add
/// time, and they slowed many ops of a run at once (the per-input median of
/// app_hier_1k moved by 1.6x between runs, its minimum by under 8%), so the
/// fastest time is the steadiest estimate of the op's own cost.  The deck
/// weights keep the op mix identical across seeds.
struct OpSummary {
  double ops_per_s = 0.0;
  double p50_s = 0.0;
  double p90_s = 0.0;
  long beyond_p90 = 0;  ///< timed ops of inputs slower than p90
};

OpSummary summarize(const Workload& w, const Loop& loop) {
  std::vector<double> weight(w.num_inputs(), 0.0);
  for (int in : w.deck()) weight[in] += 1.0;
  std::vector<std::pair<double, int>> dist;  // (median, input)
  double total = 0.0, mean = 0.0;
  for (int in = 0; in < w.num_inputs(); ++in) {
    if (loop.by_input[in].ops() == 0) continue;
    const double q =
        *std::min_element(loop.scaled[in].begin(), loop.scaled[in].end());
    dist.emplace_back(q, in);
    total += weight[in];
    mean += q * weight[in];
  }
  OpSummary s;
  if (dist.empty()) return s;
  std::sort(dist.begin(), dist.end());
  auto weighted_quantile = [&](double q) {
    double cum = 0.0;
    for (const auto& [v, in] : dist)
      if ((cum += weight[in]) >= q * total) return v;
    return dist.back().first;
  };
  s.ops_per_s = total / mean;
  s.p50_s = weighted_quantile(0.5);
  s.p90_s = weighted_quantile(0.9);
  for (const auto& [v, in] : dist)
    if (v > s.p90_s) s.beyond_p90 += loop.by_input[in].ops();
  return s;
}

/// Process high-water RSS in MB (1e6 bytes).  VmHWM belongs to this
/// process image; getrusage's ru_maxrss would also count the parent's
/// resident set inherited at fork.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// Set up several times (each a fresh workload, the previous one released
/// first), until at least kMinSetupReps runs and kSetupBudgetS seconds, and
/// keep the last; returns the set-up times at the reference host speed, each
/// scaled by the probes just before and just after it.  One set-up is one
/// noisy sample, and the millisecond-scale ones need many to give a steady
/// median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 1.0;

std::vector<double> set_up(const std::string& name, SpanLog* log,
                           std::unique_ptr<Workload>& out, HostProbe& probe) {
  auto run_probes = [&probe] {
    for (std::size_t i = 0; i < HostProbe::kWindow; ++i) probe.run();
  };
  std::vector<double> times;
  double spent = 0.0;
  run_probes();
  while (static_cast<int>(times.size()) < kMinSetupReps ||
         (spent < kSetupBudgetS &&
          static_cast<int>(times.size()) < kMaxSetupReps)) {
    out.reset();
    out = make_workload(name);
    if (log != nullptr) log->set_op(-1 - static_cast<long>(times.size()));
    const std::size_t first_probe = probe.count() - HostProbe::kWindow;
    const double t0 = cpu_s();
    out->setup(log);
    const double dt = cpu_s() - t0;
    spent += dt;
    run_probes();
    times.push_back(dt * probe.speed(first_probe, probe.count()));
  }
  return times;
}

/// (name, (value, unit)) in print order.
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, const char*>>>;

void print_result(const Tally& t, const Metrics& m) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
      "\"metrics\": {",
      t.failed == 0 ? "true" : "false", t.attempted, t.failed);
  for (std::size_t i = 0; i < m.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m[i].first.c_str(), m[i].second.first,
                m[i].second.second);
  std::printf("}}\n");
}

int run_plain(const Args& a, const Reference& ref) {
  HostProbe probe;
  std::unique_ptr<Workload> w;
  const std::vector<double> setups = set_up(a.workload, nullptr, w, probe);
  const std::size_t loop_probe = probe.count();
  Tally tally;
  for (const Output& o : w->setup_outputs(nullptr)) tally.check(ref, o);
  const Loop loop =
      timed_loop(*w, a.seed, a.seconds, ref, tally, nullptr, probe);
  const OpSummary ops = summarize(*w, loop);
  std::fprintf(stderr,
               "%s: %ld timed ops, %ld checked outputs, %zu set-ups; "
               "%ld ops beyond op_p90_ms; host speed %.4f in set-up, "
               "%.4f in the loop\n",
               a.workload.c_str(), loop.ops, tally.attempted,
               setups.size(), ops.beyond_p90, probe.speed(0, loop_probe),
               loop.speed);
  const Metrics m = {
      {"setup_s", {quantile(setups, 0.5), "s"}},
      {"ops_per_s", {ops.ops_per_s, "ops/s"}},
      {"op_p50_ms", {ops.p50_s * 1e3, "ms"}},
      {"op_p90_ms", {ops.p90_s * 1e3, "ms"}},
      {"peak_rss_mb", {peak_rss_mb(), "MB"}},
      {"success_rate",
       {1.0 - static_cast<double>(tally.failed) /
                  static_cast<double>(std::max(tally.attempted, 1L)),
        "ratio"}},
  };
  print_result(tally, m);
  return 0;
}

/// Op time with each observability sink installed, over the same ops
/// interleaved, as a ratio of the time with none.
struct SinkOverhead {
  double trace = 0.0, tlog = 0.0, prof = 0.0;
};

SinkOverhead measure_sinks(Workload& w, std::uint64_t seed, int ops,
                           const std::string& tmp_dir, const Reference& ref,
                           Tally& tally) {
  OpStream stream(w.deck(), mix_seed(seed, 0x73696e6bull, 0));
  const std::string tlog_path = tmp_dir + "/sink_overhead.tlog";
  double none = 0.0, tracer_s = 0.0, tlog_s = 0.0, prof_s = 0.0;
  {
    tlog::TlogSink tlog_sink(tlog_path);
    prof::Profiler profiler;
    for (int i = 0; i < ops; ++i) {
      const int in = stream.next();
      try {
        const Output base = w.run(in, nullptr, nullptr);
        none += base.seconds;
        tally.check(ref, base);
        {
          trace::Tracer tracer;
          const Output o = w.run(in, nullptr, &tracer);
          tracer_s += o.seconds;
          tally.check(ref, o);
        }
        {
          const Output o = w.run(in, nullptr, &tlog_sink);
          tlog_s += o.seconds;
          tally.check(ref, o);
        }
        {
          prof::ScopedThreadProfiler scoped(&profiler);
          const Output o = w.run(in, nullptr, nullptr);
          prof_s += o.seconds;
          tally.check(ref, o);
        }
      } catch (const std::exception& e) {
        tally.error(e);
      }
    }
    tlog_sink.finish();
  }
  std::filesystem::remove(tlog_path);
  return SinkOverhead{tracer_s / none, tlog_s / none, prof_s / none};
}

int run_traced(const Args& a, const Reference& ref) {
  SpanLog log;
  HostProbe probe;
  std::unique_ptr<Workload> w;
  set_up(a.workload, &log, w, probe);
  Tally tally;
  std::vector<CostPair> costs;
  for (const Output& o : w->setup_outputs(&costs)) tally.check(ref, o);

  // Same op sequence untraced, then traced: the time difference is the
  // overhead of the benchmark's own spans.
  const Loop plain =
      timed_loop(*w, a.seed, a.seconds / 2, ref, tally, nullptr, probe);
  const Loop traced =
      timed_loop(*w, a.seed, a.seconds / 2, ref, tally, &log, probe);
  const double span_overhead =
      summarize(*w, plain).ops_per_s / summarize(*w, traced).ops_per_s;

  // Counting pass, separate from the timed spans.
  long long reorders = w->warmup_reorders(), hits = 0;
  std::map<int, WorkCount> per_input;
  for (int in : w->counted_inputs(a.seed)) {
    CountingSink sink;
    try {
      const Output o = w->run(in, nullptr, &sink);
      tally.check(ref, o);
      if (const auto before = w->cost_before(in))
        costs.push_back(CostPair{o.value, *before});
    } catch (const std::exception& e) {
      tally.error(e);
    }
    per_input[in] = sink.n;
    reorders += sink.n.reorders;
    if (w->cached_ops() && sink.n.reorders == 0) ++hits;
  }
  double stages = 0.0, transfers = 0.0;
  {
    const std::vector<int> deck = w->deck();
    for (int in : deck) {
      const auto it = per_input.find(in);
      if (it == per_input.end()) continue;
      stages += static_cast<double>(it->second.stages) / deck.size();
      transfers += static_cast<double>(it->second.transfers) / deck.size();
    }
  }
  double traced_transfers = 0.0;
  for (const auto& [in, c] : per_input)
    traced_transfers += static_cast<double>(c.transfers) *
                        static_cast<double>(traced.by_input[in].ops());
  double cost_after = 0.0, cost_before = 0.0;
  for (const CostPair& c : costs) {
    cost_after += c.after;
    cost_before += c.before;
  }

  const SinkOverhead sinks = measure_sinks(
      *w, a.seed, w->cached_ops() ? 48 : 6, a.tmp_dir, ref, tally);

  const auto self = log.self_times();
  auto per_call = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.first / it->second.second;
  };
  const Metrics m = {
      {"topology.build_s", {per_call("topology.build"), "s"}},
      {"distance.extract_s", {per_call("distance.extract"), "s"}},
      {"distance.matrix_mb", {w->matrix_mb(), "MB"}},
      {"graph.pattern_build_s", {per_call("graph.pattern_build"), "s"}},
      {"mapping.heuristic_s", {per_call("mapping.heuristic"), "s"}},
      {"mapping.scotch_s", {per_call("mapping.scotch"), "s"}},
      {"mapping.greedy_s", {per_call("mapping.greedy"), "s"}},
      {"mapping.cost", {cost_after, "dist"}},
      {"mapping.cost_ratio",
       {cost_before > 0 ? cost_after / cost_before : 0.0, "ratio"}},
      {"core.reorder_self_s", {per_call("core.reorder"), "s"}},
      {"core.reorders", {static_cast<double>(reorders), "count"}},
      {"core.cache_hits", {static_cast<double>(hits), "count"}},
      {"simmpi.eval_s", {per_call("simmpi.eval"), "s"}},
      {"simmpi.stages", {stages, "count/op"}},
      {"simmpi.transfers", {transfers, "count/op"}},
      {"simmpi.ns_per_transfer",
       {traced_transfers > 0 ? traced.seconds / traced_transfers * 1e9 : 0.0,
        "ns"}},
      {"trace.overhead_ratio", {sinks.trace, "ratio"}},
      {"tlog.overhead_ratio", {sinks.tlog, "ratio"}},
      {"prof.overhead_ratio", {sinks.prof, "ratio"}},
      {"spans.overhead_ratio", {span_overhead, "ratio"}},
  };
  const std::string spans_path = a.tmp_dir + "/spans-" + a.workload +
                                 "-seed" + std::to_string(a.seed) + ".tsv";
  log.write(spans_path);
  std::fprintf(stderr, "%s: spans written to %s\n", a.workload.c_str(),
               spans_path.c_str());
  print_result(tally, m);
  return 0;
}

/// Enumerate every input of every workload and write the reference.
int make_reference(const std::string& path) {
  std::map<std::string, double> values;
  for (const char* name : {"osu_flat_4k", "app_hier_1k", "reorder_7k"}) {
    std::unique_ptr<Workload> w = make_workload(name);
    w->setup(nullptr);
    std::vector<Output> outs = w->setup_outputs(nullptr);
    for (int in = 0; in < w->num_inputs(); ++in)
      outs.push_back(w->run(in, nullptr, nullptr));
    for (const Output& o : outs) {
      if (!o.bijective) throw std::runtime_error("not a bijection: " + o.key);
      values[std::string(name) + ":" + o.key] = o.value;
    }
    std::fprintf(stderr, "%s: %zu reference values\n", name, outs.size());
  }
  std::ofstream out(path);
  char buf[64];
  for (const auto& [k, v] : values) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out << k << '\t' << buf << '\n';
  }
  return out ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: tarr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--reference FILE] [--tmp-dir DIR]\n"
               "       tarr_perfbench --make-reference FILE\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--reference") a.reference = v;
    else if (k == "--tmp-dir") a.tmp_dir = v;
    else if (k == "--make-reference") a.make_reference = v;
    else return usage();
  }
  try {
    if (!a.make_reference.empty()) return make_reference(a.make_reference);
    if (!make_workload(a.workload)) return usage();
    const Reference ref = Reference::load(a.reference, a.workload);
    std::filesystem::create_directories(a.tmp_dir);
    return a.trace ? run_traced(a, ref) : run_plain(a, ref);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tarr_perfbench: %s\n", e.what());
    return 1;
  }
}
