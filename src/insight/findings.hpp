#pragma once

#include <string>
#include <vector>

#include "insight/imbalance.hpp"
#include "prof/profiler.hpp"
#include "report/critical_path.hpp"
#include "report/render.hpp"
#include "topology/machine.hpp"
#include "trace/metrics.hpp"
#include "trace/record.hpp"

/// \file findings.hpp
/// The run-diagnosis engine: turns a recorded schedule (plus optional
/// metrics registry and self-profile) into ranked, schema'd Findings —
/// "what is wrong, how bad, with which exact numbers, and which knob to
/// turn".
///
/// Every finding carries
///   * a kind (the failure mode it detects),
///   * a severity (info / warning / critical, with deterministic
///     thresholds fixed in findings.cpp — deliberately conservative: a
///     perfectly balanced synthetic run produces zero findings),
///   * quantitative evidence — named numbers copied EXACTLY from the
///     analytics (per-rank busy sums, resource byte loads, critical-path
///     splits), so a test can EXPECT_EQ them against the traced counters,
///   * the knob it implicates: the concrete remedy the repo already ships
///     (a mapper, the hierarchical path, the fault layer, the
///     parallelization roadmap item).
///
/// Findings are ranked most-severe first with a deterministic tie order,
/// and the renderers (text / markdown here, HTML via src/viz/findings) are
/// pure functions of the Diagnosis — same-seed runs produce byte-identical
/// findings output (CI cmp's two runs).

namespace tarr::insight {

enum class Severity { Info, Warning, Critical };
const char* to_string(Severity s);
/// Parse "info" / "warning" / "critical"; throws tarr::Error otherwise.
Severity parse_severity(const std::string& s);

enum class FindingKind {
  Straggler,            ///< a few ranks carry far more busy time than median
  Imbalance,            ///< whole-run max/mean busy out of bounds
  UnfairResourceLoad,   ///< Jain index low: few cables/QPI carry the bytes
  ContentionDominated,  ///< critical path is mostly sharing stall
  RetransmissionHeavy,  ///< critical path carries fault-retry overhead
  CrossSocketHeavy,     ///< byte flow dominated by QPI crossings
  HotScope,             ///< one reproduction phase dominates self-profile
  TailLatency,          ///< distribution tail far above median (p99 vs p50)
};
const char* to_string(FindingKind k);

/// One named evidence number (exact, see file comment).
struct Evidence {
  std::string name;
  double value = 0.0;
};

/// See file comment.
struct Finding {
  FindingKind kind = FindingKind::Imbalance;
  Severity severity = Severity::Info;
  std::string title;   ///< one line, e.g. "rank 17 is a straggler"
  std::string detail;  ///< quantitative sentence with the key numbers
  std::string knob;    ///< the remedy this finding implicates
  std::vector<Evidence> evidence;
};

/// The full diagnosis: the imbalance analytics plus the ranked findings.
struct Diagnosis {
  ImbalanceReport imbalance;
  report::CriticalPath critical_path;
  std::vector<Finding> findings;  ///< severity-descending, deterministic

  Severity max_severity() const;  ///< Info when there are no findings
  bool has_severity_at_least(Severity s) const;
};

/// Diagnose one recorded run.  `top_k` (>= 1) bounds the straggler and
/// hot-resource lists; `metrics` (optional) contributes distribution tails
/// (stage durations, transfer stalls); `profile` (optional) contributes
/// reproduction hot-scope findings.
Diagnosis diagnose(const trace::ScheduleRecord& record,
                   const topology::Machine& machine, int top_k = 8,
                   const trace::MetricsRegistry* metrics = nullptr,
                   const prof::Profile* profile = nullptr);

/// Render the findings (and the headline imbalance numbers) as text or
/// markdown.  Deterministic; see file comment.
std::string render_findings(
    const Diagnosis& d,
    report::RenderFormat format = report::RenderFormat::Text);

}  // namespace tarr::insight
