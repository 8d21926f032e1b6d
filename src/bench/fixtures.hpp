#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "core/topoallgather.hpp"
#include "report/snapshot.hpp"
#include "simmpi/layout.hpp"

/// \file fixtures.hpp
/// Shared setup for the figure-reproduction benchmarks: the paper-scale
/// machine (GPC fat-tree, 512 nodes x 8 cores = 4096 processes for the
/// micro-benchmarks; 128 nodes = 1024 processes for the application runs)
/// and helpers to build communicators and topology-aware allgather paths.
/// Also the snapshot hook of the perf gate: SnapshotEmitter writes a
/// schema-versioned BENCH_<name>.json of the harness's headline metrics
/// when TARR_BENCH_SNAPSHOT_DIR is set — the input of the `tarr report
/// compare` perf gate, which gates the benches at this scale (see
/// docs/OBSERVABILITY.md).  To trace one configuration, run it through
/// `tarr map --trace/--tlog`.

namespace tarr::bench {

/// The paper's micro-benchmark scale.
inline constexpr int kPaperNodes = 512;
inline constexpr int kPaperProcs = 4096;

/// The paper's application scale (Figs 5-6 use 1024 processes).
inline constexpr int kAppNodes = 128;
inline constexpr int kAppProcs = 1024;

/// Collects a harness's headline metrics and writes BENCH_<name>.json into
/// $TARR_BENCH_SNAPSHOT_DIR on dump().  Inert (no allocation beyond the
/// name, no files) when the variable is unset, so harnesses call it
/// unconditionally.  Wall time is appended automatically as a gate=false
/// trend metric — CI machines are too noisy to gate on it.
class SnapshotEmitter {
 public:
  explicit SnapshotEmitter(std::string bench_name)
      : start_(std::chrono::steady_clock::now()) {
    if (const char* dir = std::getenv("TARR_BENCH_SNAPSHOT_DIR")) {
      dir_ = dir;
      snap_.bench = std::move(bench_name);
      snap_.config = "full";
    }
  }

  bool enabled() const { return !dir_.empty(); }

  /// Free-form scale description ("nodes" -> "512", ...).
  void set_meta(const std::string& key, const std::string& value) {
    if (enabled()) snap_.meta[key] = value;
  }

  /// One gated (or, with gate=false, trend-only) metric.
  void add_metric(const std::string& name, double value,
                  const std::string& unit, bool higher_is_better,
                  bool gate = true) {
    if (enabled())
      snap_.metrics.push_back({name, value, unit, higher_is_better, gate});
  }

  /// Write BENCH_<bench>.json; returns false when disabled.
  bool dump() {
    if (!enabled()) return false;
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start_)
            .count();
    snap_.metrics.push_back({"wall_seconds", secs, "seconds",
                             /*higher_is_better=*/false, /*gate=*/false});
    const std::string path = dir_ + "/BENCH_" + snap_.bench + ".json";
    snap_.write(path);
    std::fprintf(stderr, "snapshot: %s (%zu metrics, %s scale)\n",
                 path.c_str(), snap_.metrics.size(), snap_.config.c_str());
    return true;
  }

 private:
  std::string dir_;
  report::BenchSnapshot snap_;
  std::chrono::steady_clock::time_point start_;
};

/// A machine plus its reorder framework.
struct BenchWorld {
  topology::Machine machine;
  core::ReorderFramework framework;

  explicit BenchWorld(int nodes)
      : machine(topology::Machine::gpc(nodes)), framework(machine) {}

  simmpi::Communicator comm(int p, const simmpi::LayoutSpec& spec) {
    return simmpi::Communicator(machine, simmpi::make_layout(machine, p, spec));
  }

  core::TopoAllgather path(int p, const simmpi::LayoutSpec& spec,
                           const core::TopoAllgatherConfig& cfg) {
    return core::TopoAllgather(framework, comm(p, spec), cfg);
  }
};

}  // namespace tarr::bench
