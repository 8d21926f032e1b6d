#pragma once

#include <map>
#include <string>
#include <vector>

/// \file snapshot.hpp
/// Bench snapshots and the perf-regression gate.
///
/// A figure/ablation binary run with TARR_BENCH_SNAPSHOT_DIR set emits one
/// `BENCH_<name>.json` per bench: a schema-versioned record of the bench's
/// configuration plus its headline metrics (simulated completion costs,
/// percentage improvements, wall time).  `tarr report compare` then diffs a
/// current snapshot set against a committed baseline set with per-metric
/// tolerances and exits nonzero on regression — the repo's first perf gate.
///
/// Schema v1:
/// ```json
/// {
///   "schema": 1,
///   "bench": "fig3_nonhier",
///   "config": "full",
///   "meta": {"nodes": "512", ...},
///   "metrics": [
///     {"name": "...", "value": 1.5, "unit": "us",
///      "higher_is_better": false, "gate": true}, ...
///   ]
/// }
/// ```
/// Wall-time metrics carry `"gate": false` — they are recorded for trend
/// inspection but never fail the gate (CI machines are noisy).
///
/// Everything here is dependency-free: the parser is a minimal
/// recursive-descent JSON reader (objects/arrays/strings/numbers/bools),
/// and the writer is deterministic (fixed key order, locale-independent
/// number formatting) so regenerated snapshots diff cleanly.

namespace tarr::report {

inline constexpr int kSnapshotSchema = 1;

/// One gated (or trend-only) measurement of a bench run.
struct BenchMetric {
  std::string name;
  double value = 0.0;
  std::string unit;               ///< "us", "percent", "seconds", ...
  bool higher_is_better = false;  ///< improvement direction
  bool gate = true;               ///< false: recorded but never gates
};

/// One bench's snapshot (see file comment for the serialized schema).
struct BenchSnapshot {
  int schema = kSnapshotSchema;
  std::string bench;   ///< bench name, also the BENCH_<name>.json stem
  std::string config;  ///< scale label; the benches always write "full"
  std::map<std::string, std::string> meta;  ///< free-form scale description
  std::vector<BenchMetric> metrics;

  const BenchMetric* find(const std::string& name) const;

  /// Deterministic serialization (schema v1).
  std::string json() const;

  /// Write json() to `path`; throws tarr::Error on I/O failure.
  void write(const std::string& path) const;
};

/// One labeled snapshot set: one point of a perf trajectory (a directory of
/// `BENCH_*.json` files — committed baselines, a CI run, a local
/// regeneration).  `label` names the history position: a tag, a commit, a
/// directory stem.
struct SnapshotSet {
  std::string label;
  std::vector<BenchSnapshot> snapshots;
};

/// Parse one snapshot from JSON text; throws tarr::Error on malformed input
/// or an unsupported schema version.
BenchSnapshot parse_snapshot(const std::string& text);

/// Read and parse `path`; throws tarr::Error on I/O or parse failure.
BenchSnapshot load_snapshot(const std::string& path);

/// Load every `BENCH_*.json` under `dir` (or the single file if `dir` is a
/// file), sorted by bench name.  Throws tarr::Error if nothing is found.
std::vector<BenchSnapshot> load_snapshot_set(const std::string& dir);

/// True when `name` matches `pattern`, where `*` matches any run of
/// characters (including none) and `?` matches exactly one.  No character
/// classes, no escaping — this is the subset CI invocations need, kept
/// dependency-free (POSIX glob(3) is absent on some toolchains we target).
bool glob_match(const std::string& pattern, const std::string& name);

/// Expand a glob over snapshot files: the directory part of `pattern` is
/// taken literally, only the final path component globs (no `**`
/// recursion).  Returns matching regular files sorted by path; a pattern
/// without wildcards returns itself when it names an existing file or
/// directory.  Throws tarr::Error when nothing matches.
std::vector<std::string> glob_paths(const std::string& pattern);

/// Load a snapshot set selected by `pattern`: without wildcards this is
/// exactly load_snapshot_set(pattern); with them, every matching file is
/// parsed (a matching directory contributes its whole BENCH_*.json set),
/// sorted by bench name.  Throws tarr::Error when nothing matches.
std::vector<BenchSnapshot> load_snapshot_set_glob(const std::string& pattern);

/// Gate tolerances.  A gated metric regresses when it is worse than the
/// baseline by more than max(abs_tolerance, rel_tolerance% of |baseline|)
/// in its improvement direction.
struct CompareOptions {
  double rel_tolerance = 2.0;  ///< percent of the baseline value
  double abs_tolerance = 0.0;  ///< same unit as the metric
};

/// Where a reading falls against the gate tolerance around its baseline.
enum class Drift { Within, Worse, Better };

/// The gate's rule, stated once: `current` is Worse (Better) when it moved
/// from `baseline` by more than max(abs_tolerance, rel_tolerance% of
/// |baseline|) in the metric's worse (better) direction.  `baseline.gate`
/// is not consulted.
Drift drift(const BenchMetric& baseline, double current,
            const CompareOptions& opts);

/// Verdict for one metric of one bench.
struct MetricComparison {
  std::string name;
  std::string unit;
  bool gated = true;
  double baseline = 0.0;
  double current = 0.0;
  double change_percent = 0.0;  ///< signed, relative to baseline
  bool regressed = false;       ///< beyond tolerance in the worse direction
  bool improved = false;        ///< beyond tolerance in the better direction
  bool missing = false;         ///< gated metric absent from current run
};

/// Verdict for one bench (metrics matched by name).
struct SnapshotComparison {
  std::string bench;
  std::vector<MetricComparison> metrics;
  bool missing = false;  ///< baseline bench absent from the current set
  bool regressed() const;
};

SnapshotComparison compare_snapshots(const BenchSnapshot& baseline,
                                     const BenchSnapshot& current,
                                     const CompareOptions& opts);

/// Compare two sets matched by bench name.  A baseline bench missing from
/// `current` is a regression; extra current benches are ignored (they gate
/// once committed to the baseline).
std::vector<SnapshotComparison> compare_snapshot_sets(
    const std::vector<BenchSnapshot>& baseline,
    const std::vector<BenchSnapshot>& current, const CompareOptions& opts);

bool any_regressed(const std::vector<SnapshotComparison>& results);

}  // namespace tarr::report
