#include "insight/findings.hpp"

#include <algorithm>
#include <cstdio>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace tarr::insight {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::Info:
      return "info";
    case Severity::Warning:
      return "warning";
    case Severity::Critical:
      return "critical";
  }
  return "?";
}

Severity parse_severity(const std::string& s) {
  if (s == "info") return Severity::Info;
  if (s == "warning") return Severity::Warning;
  if (s == "critical") return Severity::Critical;
  throw Error("unknown severity: " + s +
              " (expected info, warning or critical)");
}

const char* to_string(FindingKind k) {
  switch (k) {
    case FindingKind::Straggler:
      return "straggler";
    case FindingKind::Imbalance:
      return "imbalance";
    case FindingKind::UnfairResourceLoad:
      return "unfair-resource-load";
    case FindingKind::ContentionDominated:
      return "contention-dominated";
    case FindingKind::RetransmissionHeavy:
      return "retransmission-heavy";
    case FindingKind::CrossSocketHeavy:
      return "cross-socket-heavy";
    case FindingKind::HotScope:
      return "hot-scope";
    case FindingKind::TailLatency:
      return "tail-latency";
  }
  return "?";
}

Severity Diagnosis::max_severity() const {
  Severity s = Severity::Info;
  for (const auto& f : findings) s = std::max(s, f.severity);
  return s;
}

bool Diagnosis::has_severity_at_least(Severity s) const {
  for (const auto& f : findings)
    if (f.severity >= s) return true;
  return false;
}

namespace {

/// Fixed two-decimal display formatting (ratios, shares); locale-free.
std::string fmt2(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

std::string rank_list(const std::vector<Rank>& ranks) {
  std::string out;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(ranks[i]);
  }
  return out;
}

/// A rank is a straggler when busy >= this ratio * median busy.
constexpr double kStragglerRatio = 1.5;

void check_stragglers(const ImbalanceReport& imb,
                      const topology::Machine& machine,
                      std::vector<Finding>& out) {
  std::vector<double> busy;
  for (const auto& rl : imb.ranks)
    if (rl.transfers > 0) busy.push_back(rl.busy);
  if (busy.size() < 2) return;
  const double median = exact_quantile(busy, 0.5);
  if (median <= 0.0) return;

  std::vector<Rank> stragglers;
  double worst_ratio = 0.0;
  for (const Rank r : imb.stragglers) {
    const auto& rl = imb.ranks[static_cast<std::size_t>(r)];
    const double ratio = rl.busy / median;
    if (ratio >= kStragglerRatio) {
      stragglers.push_back(r);
      worst_ratio = std::max(worst_ratio, ratio);
    }
  }
  if (stragglers.empty()) return;

  // Shared-locality evidence: when every straggler sits on one node the
  // remedy is structural (leader placement), not luck.
  NodeId shared_node = -1;
  bool all_same_node = true;
  for (const Rank r : stragglers) {
    const CoreId c = imb.ranks[static_cast<std::size_t>(r)].core;
    if (c < 0) {
      all_same_node = false;
      break;
    }
    const NodeId n = machine.node_of_core(c);
    if (shared_node < 0) shared_node = n;
    else if (n != shared_node) all_same_node = false;
  }

  Finding f;
  f.kind = FindingKind::Straggler;
  f.severity = worst_ratio >= 2.0 * kStragglerRatio ? Severity::Critical
                                                    : Severity::Warning;
  f.title = "straggler ranks: " + rank_list(stragglers);
  f.detail = "slowest rank carries " + fmt2(worst_ratio) +
             "x the median busy time (" + format_number(median) + " us median)";
  if (all_same_node && stragglers.size() > 1 && shared_node >= 0)
    f.detail += "; all stragglers share node " + std::to_string(shared_node);
  f.knob = all_same_node && stragglers.size() > 1
               ? "candidate for hierarchical leader reassignment "
                 "(hier collectives / tarr map --mapper heuristic)"
               : "reorder ranks onto less-loaded cores "
                 "(tarr map --mapper heuristic|scotch|greedy)";
  f.evidence.push_back({"median.busy_usec", median});
  for (const Rank r : stragglers)
    f.evidence.push_back({"rank" + std::to_string(r) + ".busy_usec",
                          imb.ranks[static_cast<std::size_t>(r)].busy});
  out.push_back(std::move(f));
}

/// Whole-run max/mean busy thresholds.
constexpr double kImbalanceWarn = 1.5;
constexpr double kImbalanceCritical = 3.0;

void check_imbalance(const ImbalanceReport& imb, std::vector<Finding>& out) {
  if (imb.imbalance < kImbalanceWarn) return;
  Finding f;
  f.kind = FindingKind::Imbalance;
  f.severity = imb.imbalance >= kImbalanceCritical ? Severity::Critical
                                                   : Severity::Warning;
  f.title = "per-rank load imbalance " + fmt2(imb.imbalance);
  f.detail = "the busiest rank works " + fmt2(imb.imbalance) +
             "x the mean; a balanced schedule scores 1.0";
  f.knob = "topology-aware reordering (tarr map) or a schedule with "
           "evener per-rank work";
  f.evidence.push_back({"imbalance.max_over_mean", imb.imbalance});
  out.push_back(std::move(f));
}

/// Jain fairness warning threshold over directed cable loads.
constexpr double kJainWarn = 0.5;

void check_fairness(const ImbalanceReport& imb, std::vector<Finding>& out) {
  if (imb.jain_links >= kJainWarn || imb.hot_resources.empty()) return;
  Finding f;
  f.kind = FindingKind::UnfairResourceLoad;
  f.severity = Severity::Warning;
  f.title = "cable load is concentrated (Jain " + fmt2(imb.jain_links) + ")";
  f.detail = "a few directed cables carry most of the bytes; "
             "Jain fairness 1.0 is even, 1/n is one hot cable";
  f.knob = "a mapping that spreads leaf-uplink load "
           "(tarr map --mapper scotch) or the hierarchical path";
  f.evidence.push_back({"jain.links", imb.jain_links});
  for (const auto& h : imb.hot_resources) {
    if (h.qpi) continue;
    f.evidence.push_back({"cable" + std::to_string(h.id) + ".d" +
                              std::to_string(h.dir) + ".bytes",
                          h.bytes});
  }
  out.push_back(std::move(f));
}

/// Critical-path contention-share warning threshold.
constexpr double kContentionShareWarn = 0.5;
/// Critical-path retransmission-share warning threshold.
constexpr double kRetransmissionShareWarn = 0.1;

void check_critical_path(const report::CriticalPath& path,
                         std::vector<Finding>& out) {
  if (path.total <= 0.0) return;
  const double contention_share = path.contention / path.total;
  if (contention_share >= kContentionShareWarn) {
    Finding f;
    f.kind = FindingKind::ContentionDominated;
    f.severity = Severity::Warning;
    f.title = "critical path is contention-dominated (" +
              fmt2(100.0 * contention_share) + "% stall)";
    f.detail = "resource-sharing stall, not serialization, determines "
               "completion time — the schedule oversubscribes cables or QPI";
    f.knob = "topology-aware reordering (tarr map), or fewer concurrent "
             "transfers per stage (hierarchical/pipelined collectives)";
    f.evidence.push_back({"critical.total_usec", path.total});
    f.evidence.push_back({"critical.contention_usec", path.contention});
    f.evidence.push_back({"critical.serialization_usec", path.serialization});
    out.push_back(std::move(f));
  }
  const double retrans_share = path.retransmission / path.total;
  if (retrans_share >= kRetransmissionShareWarn) {
    Finding f;
    f.kind = FindingKind::RetransmissionHeavy;
    f.severity = Severity::Warning;
    f.title = "retransmissions on the critical path (" +
              fmt2(100.0 * retrans_share) + "%)";
    f.detail = "transient-fault retries and drop-detection waits are "
               "inflating completion time";
    f.knob = "investigate the faulty links (tarr::fault campaign) or relax "
             "the drop-timeout configuration";
    f.evidence.push_back({"critical.retransmission_usec",
                          path.retransmission});
    f.evidence.push_back({"critical.total_usec", path.total});
    out.push_back(std::move(f));
  }
}

/// QPI byte share (of all priced transfer bytes) info threshold.
constexpr double kQpiShareInfo = 0.4;

void check_qpi_share(const trace::ScheduleRecord& record,
                     const topology::Machine& machine,
                     std::vector<Finding>& out) {
  const auto flows = report::channel_flows(record, machine);
  double total_bytes = 0.0;
  double qpi_bytes = 0.0;
  for (const auto& [ch, f] : flows) {
    if (ch == report::PathChannel::Local) continue;
    total_bytes += f.bytes;
    if (ch == report::PathChannel::Qpi) qpi_bytes += f.bytes;
  }
  if (total_bytes <= 0.0) return;
  const double share = qpi_bytes / total_bytes;
  if (share < kQpiShareInfo) return;
  Finding f;
  f.kind = FindingKind::CrossSocketHeavy;
  f.severity = Severity::Info;
  f.title = "QPI carries " + fmt2(100.0 * share) + "% of the bytes";
  f.detail = "cross-socket traffic dominates; socket-aware placement "
             "(bunch layouts, intra-socket grouping) would relieve it";
  f.knob = "a bunch initial layout or the socket-aware mapping comparators";
  f.evidence.push_back({"flow.qpi_bytes", qpi_bytes});
  f.evidence.push_back({"flow.total_bytes", total_bytes});
  out.push_back(std::move(f));
}

/// Distribution tail: p99 >= this ratio * p50 raises a tail-latency finding.
constexpr double kTailRatio = 3.0;

void check_tails(const trace::MetricsRegistry& metrics,
                 std::vector<Finding>& out) {
  // Deterministic order: distributions() is a std::map.
  for (const auto& [name, hist] : metrics.distributions()) {
    if (hist.count() < 8) continue;  // tails of tiny samples are noise
    const double p50 = hist.quantile(0.5);
    const double p99 = hist.quantile(0.99);
    if (p50 <= 0.0 || p99 < kTailRatio * p50) continue;
    Finding f;
    f.kind = FindingKind::TailLatency;
    f.severity = Severity::Warning;
    f.title = name + " p99 is " + fmt2(p99 / p50) + "x the median";
    f.detail = "the " + name + " distribution has a heavy tail (p50 " +
               format_number(p50) + ", p99 " + format_number(p99) +
               "); under multi-tenant fabrics the tail decides whether "
               "reordering pays";
    f.knob = "probe-and-remap (tarr probe) if the fabric churns, else "
             "reordering for the contended resource";
    f.evidence.push_back({name + ".p50", p50});
    f.evidence.push_back({name + ".p99", p99});
    f.evidence.push_back({name + ".count",
                          static_cast<double>(hist.count())});
    out.push_back(std::move(f));
  }
}

/// Self-profile: a depth-1 scope with more than this share of root work.
constexpr double kHotScopeShare = 0.6;

void check_hot_scope(const prof::Profile& profile, std::vector<Finding>& out) {
  if (profile.entries.empty()) return;
  const double root_work = profile.entries.front().work_total;
  if (root_work <= 0.0) return;
  for (const auto& e : profile.entries) {
    if (e.depth != 1) continue;
    const double share = e.work_total / root_work;
    if (share < kHotScopeShare) continue;
    Finding f;
    f.kind = FindingKind::HotScope;
    f.severity = Severity::Info;
    f.title = "reproduction phase '" + e.name + "' dominates (" +
              fmt2(100.0 * share) + "% of work)";
    f.detail = "one phase carries most of the reproduction's own cost; "
               "see the ROADMAP multithreading item for the parallel plan";
    f.knob = "parallelize '" + e.name + "' (work-stealing pool, "
             "per-subtree bisections) behind the determinism contract";
    f.evidence.push_back({"prof." + e.name + ".work_total", e.work_total});
    f.evidence.push_back({"prof.root.work_total", root_work});
    out.push_back(std::move(f));
  }
}

}  // namespace

Diagnosis diagnose(const trace::ScheduleRecord& record,
                   const topology::Machine& machine, int top_k,
                   const trace::MetricsRegistry* metrics,
                   const prof::Profile* profile) {
  TARR_REQUIRE(top_k >= 1, "diagnose: top_k must be >= 1");
  Diagnosis d;
  d.imbalance = analyze_imbalance(record, top_k);
  d.critical_path = report::analyze_critical_path(record, machine);

  check_stragglers(d.imbalance, machine, d.findings);
  check_imbalance(d.imbalance, d.findings);
  check_fairness(d.imbalance, d.findings);
  check_critical_path(d.critical_path, d.findings);
  check_qpi_share(record, machine, d.findings);
  if (metrics != nullptr) check_tails(*metrics, d.findings);
  if (profile != nullptr) check_hot_scope(*profile, d.findings);

  // Rank: most severe first, then kind order, then title — deterministic
  // regardless of the order the checks appended in.
  std::stable_sort(d.findings.begin(), d.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.severity != b.severity)
                       return a.severity > b.severity;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.title < b.title;
                   });
  return d;
}

std::string render_findings(const Diagnosis& d, report::RenderFormat format) {
  const bool md = format == report::RenderFormat::Markdown;
  std::string out;
  if (md) out += "## Diagnosis\n\n";
  out += "diagnosis: " + std::to_string(d.findings.size()) + " finding(s)";
  if (!d.findings.empty())
    out += ", max severity " + std::string(to_string(d.max_severity()));
  out += "\n";
  out += "run: total " + format_number(d.critical_path.total) +
         " us, imbalance " + fmt2(d.imbalance.imbalance) + ", Jain(links) " +
         fmt2(d.imbalance.jain_links) + ", Jain(qpi) " +
         fmt2(d.imbalance.jain_qpi) + "\n";
  if (md) out += "\n";
  for (const auto& f : d.findings) {
    std::string sev = to_string(f.severity);
    for (char& c : sev) c = static_cast<char>(c - 'a' + 'A');
    if (md) {
      out += "- **[" + sev + "]** " + f.title + " *(" +
             to_string(f.kind) + ")*\n";
      out += "  - " + f.detail + "\n";
      out += "  - knob: " + f.knob + "\n";
      std::string ev;
      for (const auto& e : f.evidence) {
        if (!ev.empty()) ev += "; ";
        ev += e.name + "=" + format_number(e.value);
      }
      if (!ev.empty()) out += "  - evidence: " + ev + "\n";
    } else {
      out += "\n[" + sev + "] " + f.title + " (" + to_string(f.kind) + ")\n";
      out += "  " + f.detail + "\n";
      out += "  knob: " + f.knob + "\n";
      std::string ev;
      for (const auto& e : f.evidence) {
        if (!ev.empty()) ev += "; ";
        ev += e.name + "=" + format_number(e.value);
      }
      if (!ev.empty()) out += "  evidence: " + ev + "\n";
    }
  }
  if (d.findings.empty())
    out += md ? "\nno findings — the run looks balanced.\n"
              : "no findings - the run looks balanced.\n";
  return out;
}

}  // namespace tarr::insight
