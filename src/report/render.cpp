#include "report/render.hpp"

#include <algorithm>

#include "common/table.hpp"

namespace tarr::report {

namespace {

/// Render rows either through TextTable or as a markdown pipe table with
/// identical cell contents, so the two formats never drift.
std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows,
                         RenderFormat format) {
  if (format == RenderFormat::Text) {
    TextTable t;
    t.set_header(header);
    for (const auto& r : rows) t.add_row(r);
    return t.render();
  }
  std::string out = "|";
  for (const auto& h : header) out += " " + h + " |";
  out += "\n|";
  for (std::size_t i = 0; i < header.size(); ++i) out += " --- |";
  out += "\n";
  for (const auto& r : rows) {
    out += "|";
    for (std::size_t i = 0; i < header.size(); ++i)
      out += " " + (i < r.size() ? r[i] : std::string()) + " |";
    out += "\n";
  }
  return out;
}

std::string heading(const std::string& title, RenderFormat format) {
  if (format == RenderFormat::Markdown) return "\n### " + title + "\n\n";
  return "\n== " + title + " ==\n";
}

std::string pct(double num, double denom) {
  return denom != 0.0 ? TextTable::num(num / denom * 100.0, 1) + "%" : "-";
}

std::string signed_num(double v, int decimals = 1) {
  std::string s = v > 0.0 ? "+" : "";
  s += TextTable::num(v, decimals);
  return s;
}

std::string flow_bytes(double b) {
  return TextTable::bytes(static_cast<long long>(b));
}

}  // namespace

std::string render_critical_path(const CriticalPath& path,
                                 RenderFormat format, int max_segments) {
  std::string out;
  out += heading("critical path", format);
  out += "total " + TextTable::num(path.total, 3) + " us over " +
         std::to_string(path.segments.size()) + " segments: " +
         TextTable::num(path.serialization, 3) + " us serialization (" +
         pct(path.serialization, path.total) + "), " +
         TextTable::num(path.contention, 3) + " us contention stall (" +
         pct(path.contention, path.total) + "), " +
         TextTable::num(path.retransmission, 3) + " us retransmission (" +
         pct(path.retransmission, path.total) + ")\n";

  out += heading("by channel class", format);
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [ch, attr] : path.by_channel) {
      rows.push_back({to_string(ch), std::to_string(attr.segments),
                      TextTable::num(attr.time, 3),
                      pct(attr.time, path.total), flow_bytes(attr.bytes)});
    }
    out += render_table({"channel", "segments", "time us", "share",
                         "crit bytes"},
                        rows, format);
  }

  out += heading("segments", format);
  {
    std::vector<std::vector<std::string>> rows;
    const int n = static_cast<int>(path.segments.size());
    const int shown = std::min(n, max_segments);
    for (int i = 0; i < shown; ++i) {
      const PathSegment& s = path.segments[i];
      rows.push_back(
          {s.stage >= 0 ? std::to_string(s.stage) : "-",
           s.repeats > 1 ? "x" + std::to_string(s.repeats) : "",
           to_string(s.channel), s.what, s.phase,
           s.bytes > 0 ? flow_bytes(s.bytes) : "",
           TextTable::num(s.duration, 3), TextTable::num(s.contention, 3),
           TextTable::num(s.retransmission, 3)});
    }
    out += render_table({"stage", "rep", "channel", "critical element",
                         "phase", "bytes", "dur us", "stall us", "retx us"},
                        rows, format);
    if (shown < n)
      out += "(" + std::to_string(n - shown) + " more segments elided)\n";
  }
  return out;
}

std::string render_diff(const MappingDiff& diff, RenderFormat format) {
  std::string out;
  out += heading("mapping-attribution diff", format);
  out += "baseline " + TextTable::num(diff.total_a, 3) + " us -> candidate " +
         TextTable::num(diff.total_b, 3) + " us (" +
         signed_num(-diff.improvement_percent) + "% time, " +
         TextTable::num(diff.improvement_percent, 1) + "% improvement)\n";
  out += "critical-path nature (baseline -> candidate): serialization " +
         TextTable::num(diff.path_a.serialization, 3) + " -> " +
         TextTable::num(diff.path_b.serialization, 3) + " us, contention " +
         TextTable::num(diff.path_a.contention, 3) + " -> " +
         TextTable::num(diff.path_b.contention, 3) + " us, retransmission " +
         TextTable::num(diff.path_a.retransmission, 3) + " -> " +
         TextTable::num(diff.path_b.retransmission, 3) + " us\n";

  out += heading("channel migration", format);
  {
    std::vector<std::vector<std::string>> rows;
    for (const auto& [ch, d] : diff.channels) {
      rows.push_back({to_string(ch), flow_bytes(d.a.bytes),
                      flow_bytes(d.b.bytes),
                      signed_num(d.bytes_delta() / 1024.0, 1) + "K",
                      TextTable::num(d.a.transfer_time, 1),
                      TextTable::num(d.b.transfer_time, 1),
                      signed_num(d.time_delta(), 1)});
    }
    out += render_table({"channel", "bytes A", "bytes B", "delta",
                         "time A us", "time B us", "delta us"},
                        rows, format);
  }

  const auto resource_rows =
      [](const std::vector<ResourceDelta>& list) {
        std::vector<std::vector<std::string>> rows;
        for (const auto& r : list)
          rows.push_back({r.label(), flow_bytes(r.bytes_a),
                          flow_bytes(r.bytes_b),
                          signed_num(r.delta() / 1024.0, 1) + "K"});
        return rows;
      };
  if (!diff.relieved.empty()) {
    out += heading("top relieved resources", format);
    out += render_table({"resource", "bytes A", "bytes B", "delta"},
                        resource_rows(diff.relieved), format);
  }
  if (!diff.newly_loaded.empty()) {
    out += heading("top newly loaded resources", format);
    out += render_table({"resource", "bytes A", "bytes B", "delta"},
                        resource_rows(diff.newly_loaded), format);
  }
  return out;
}

std::string render_comparison(const std::vector<SnapshotComparison>& results,
                              const CompareOptions& opts,
                              RenderFormat format) {
  std::string out;
  out += heading("snapshot comparison", format);
  out += "tolerance: " + TextTable::num(opts.rel_tolerance, 2) +
         "% relative, " + TextTable::num(opts.abs_tolerance, 3) +
         " absolute\n";
  int regressions = 0;
  for (const auto& r : results) {
    out += heading("bench " + r.bench, format);
    if (r.missing) {
      out += "MISSING: bench present in baseline but not in current run\n";
      ++regressions;
      continue;
    }
    std::vector<std::vector<std::string>> rows;
    for (const auto& m : r.metrics) {
      std::string verdict;
      if (m.missing)
        verdict = m.gated ? "MISSING (regression)" : "missing";
      else if (m.regressed)
        verdict = "REGRESSED";
      else if (m.improved)
        verdict = "improved";
      else
        verdict = "ok";
      if (m.regressed) ++regressions;
      rows.push_back({m.name, m.unit, TextTable::num(m.baseline, 4),
                      m.missing ? "-" : TextTable::num(m.current, 4),
                      m.missing ? "-" : signed_num(m.change_percent) + "%",
                      m.gated ? "yes" : "no", verdict});
    }
    out += render_table({"metric", "unit", "baseline", "current", "change",
                         "gated", "verdict"},
                        rows, format);
  }
  out += "\n";
  out += regressions == 0
             ? "PASS: no gated metric regressed\n"
             : "FAIL: " + std::to_string(regressions) +
                   " regression(s) beyond tolerance\n";
  return out;
}

}  // namespace tarr::report
