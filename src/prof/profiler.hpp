#pragma once

#include <chrono>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "prof/obs.hpp"

/// \file profiler.hpp
/// tarr::prof — deterministic self-profiling of the reproduction itself
/// (see docs/OBSERVABILITY.md, "Profiling").
///
/// Where tarr::trace makes the *simulated machine* legible, tarr::prof
/// makes the *reproduction's own hot paths* legible: bisection, FM
/// refinement, distance extraction, cost-model pricing, the engine stage
/// loop, and the probing controller.  It is the flat-profile evidence the
/// ROADMAP's parallelization item is judged against.
///
/// Two metric families, never mixed in one export column:
///  * deterministic work counters — swap evaluations, matrix cells filled,
///    transfers priced, bytes allocated through the counting hook.  Same
///    seed, same counters, byte for byte; these ride the perf gate.
///  * wall-clock seconds — measured per scope but exported only on request
///    (ExportOptions::include_wall), like `tarr map --wall`.
///
/// Cost discipline: instrumented code consults the profiler leg of the
/// ambient channel (prof/obs.hpp), which defaults to nullptr, so every
/// disabled site is one thread-local load and a branch.  Profiling observes
/// the computation without participating in it — enabling it must not
/// change any simulated cost (asserted by tests/test_prof.cpp).

namespace tarr::prof {

/// Snapshot of the process-wide counting allocator (prof/memhook.cpp).
/// Zero until `link_memhook()` registers the hook's reader.
struct MemCounters {
  unsigned long long bytes = 0;   ///< requested bytes, cumulative
  unsigned long long allocs = 0;  ///< allocation calls, cumulative
};

/// Self + subtree value of one metric at one scope (Profile is the
/// aggregated export form; totals are exact sums by construction).
struct ProfileMetric {
  double self = 0.0;
  double total = 0.0;
};

/// One scope node of an aggregated profile, preorder-flattened.
struct ProfileEntry {
  std::string name;   ///< scope name ("(root)" for the implicit root)
  std::string path;   ///< "/"-joined path from root, "" for the root
  int parent = -1;    ///< index of parent entry, -1 for the root
  int depth = 0;      ///< root is 0
  long long calls = 0;
  double wall_self = 0.0;   ///< seconds (total - sum of child totals, exact)
  double wall_total = 0.0;  ///< seconds, inclusive
  long long mem_bytes_self = 0;
  long long mem_bytes_total = 0;
  long long mem_allocs_self = 0;
  long long mem_allocs_total = 0;
  double work_self = 0.0;   ///< sum of all counter deltas charged here
  double work_total = 0.0;
  /// Named deterministic counters (sorted by name — std::map).
  std::map<std::string, ProfileMetric> counters;
};

/// Aggregated scope tree, ready for export (prof/export.hpp) or
/// rendering (viz/profile.hpp).  entries[0] is always the root.
struct Profile {
  std::vector<ProfileEntry> entries;
  bool mem_tracked = false;  ///< the counting allocator hook was active

  /// Root total of a named counter (0 if never counted).
  double counter_total(const std::string& name) const;
  /// First entry whose path equals `path` (nullptr if absent).
  const ProfileEntry* find(const std::string& path) const;
};

/// Hierarchical scoped profiler.  Scopes aggregate by (parent, name): the
/// second `ProfScope("bisect")` under the same parent accumulates into the
/// same node rather than growing the tree, so profiles stay small and
/// deterministic regardless of call counts.  Recursive re-entry of a name
/// nests (a "bisect" child under "bisect") instead of double-counting
/// inclusive time.  Not thread-safe; one Profiler per thread.
class Profiler {
 public:
  Profiler();

  /// Open a child scope of the current scope (creating the node on first
  /// entry, in first-entry order — deterministic for deterministic code).
  void enter(std::string_view name);
  /// Close the innermost open scope, charging wall time and allocator
  /// deltas to it.
  void exit_scope();
  /// Charge a named counter delta (and the aggregate "work" metric) to the
  /// innermost open scope, or to the root when no scope is open.
  void count(std::string_view name, double delta);

  /// Open scopes right now (0 at rest; snapshot requires 0).
  int open_scopes() const { return static_cast<int>(stack_.size()); }

  /// Aggregate the tree into its export form.  Totals are computed so that
  /// total == self + sum(child totals) holds exactly (EXPECT_EQ-exact) for
  /// every metric.
  Profile snapshot() const;

 private:
  struct Node {
    std::string name;
    int parent = -1;
    std::vector<int> children;             // first-entry order
    std::map<std::string, int, std::less<>> by_name;  // child -> node index
    long long calls = 0;
    double wall_total = 0.0;               // inclusive seconds
    long long mem_bytes_total = 0;         // inclusive, via memhook
    long long mem_allocs_total = 0;
    double work_self = 0.0;
    std::map<std::string, double, std::less<>> counts;  // self values
  };
  struct Open {
    int node = 0;
    std::chrono::steady_clock::time_point t0;
    MemCounters mem0;
  };

  std::vector<Node> nodes_;  // nodes_[0] = implicit root
  std::vector<Open> stack_;
};

/// Another name for obs::Install, the installer of either leg, kept because
/// perfbench/ names it.
using ScopedThreadProfiler = obs::Install;

/// RAII scope against the *ambient* profiler.  The profiler pointer is
/// captured at construction, so installing/removing the ambient profiler
/// mid-scope cannot unbalance the stack.
class ProfScope {
 public:
  explicit ProfScope(std::string_view name) : prof_(obs::ambient().prof) {
    if (prof_ != nullptr) prof_->enter(name);
  }
  ~ProfScope() {
    if (prof_ != nullptr) prof_->exit_scope();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* prof_;
};

/// Charge a work counter against the ambient profiler (no-op when disabled;
/// one thread-local load + branch).  Decision counters, which the sink reads
/// too, go through obs::count.
inline void count(std::string_view name, double delta = 1.0) {
  if (Profiler* p = obs::ambient().prof) p->count(name, delta);
}

namespace detail {
/// Reader of the process-wide allocation counters, registered by
/// prof::link_memhook().  nullptr when the counting allocator is not
/// linked into the binary.
using MemSnapshotFn = MemCounters (*)();
void set_mem_source(MemSnapshotFn fn);
MemSnapshotFn mem_source();
}  // namespace detail

}  // namespace tarr::prof
