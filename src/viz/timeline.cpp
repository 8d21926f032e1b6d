#include "viz/timeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <tuple>

namespace tarr::viz {

namespace {

using report::CriticalPath;
using report::PathSegment;
using trace::ScheduleRecord;

/// SVG width in pixels.
constexpr int kWidth = 1100;
/// Above this many ranks the per-rank band is skipped: it would be an
/// unreadable smear and a multi-megabyte SVG.
constexpr int kMaxRankRows = 96;

/// Categorical slots for channel identity — deliberately disjoint from the
/// cost-nature slots (0..2) used by the critical-path band on the same
/// page, so the two legends never collide.
int channel_slot(trace::Channel c) {
  switch (c) {
    case trace::Channel::SameComplex: return 3;
    case trace::Channel::SameSocket: return 4;
    case trace::Channel::CrossSocket: return 5;
    case trace::Channel::Network: return 6;
    case trace::Channel::Local: return 7;
  }
  return 6;
}

std::string swatch(const char* color) {
  return "<svg width=\"12\" height=\"12\"><rect width=\"12\" height=\"12\" "
         "fill=\"" + std::string(color) + "\"></rect></svg> ";
}

}  // namespace

std::string render_timeline(const ScheduleRecord& record,
                            const CriticalPath& path,
                            const std::string& caption) {
  if (record.empty()) {
    return "<p class=\"intro\">" +
           escape_text(caption.empty() ? std::string("Timeline")
                                       : caption) +
           ": the record is empty (no stages or time events).</p>\n";
  }

  // Time range: the recorded events cover [0, total] by construction.
  const double total = std::max(record.total, 1.0e-12);

  // Ranks observed (bars live on the destination's row).
  std::set<Rank> rank_set;
  for (const auto& t : record.transfers) {
    rank_set.insert(t.src);
    rank_set.insert(t.dst);
  }
  std::map<Rank, int> row_of;
  for (const Rank r : rank_set)
    row_of.emplace(r, static_cast<int>(row_of.size()));
  const int nranks = static_cast<int>(rank_set.size());
  const bool draw_ranks = nranks > 0 && nranks <= kMaxRankRows;

  // Phase nesting depth (phases arrive outer-first per nesting level).
  std::vector<int> phase_depth(record.phases.size(), 0);
  int max_depth = 0;
  for (std::size_t i = 0; i < record.phases.size(); ++i) {
    const auto& p = record.phases[i];
    int depth = 0;
    for (std::size_t j = 0; j < i; ++j) {
      const auto& q = record.phases[j];
      if (p.start >= q.start && p.start + p.duration <= q.start + q.duration &&
          !(p.start == q.start && p.duration == q.duration))
        depth = std::max(depth, phase_depth[j] + 1);
    }
    phase_depth[i] = std::min(depth, 3);
    max_depth = std::max(max_depth, phase_depth[i]);
  }

  // Geometry.
  const double ml = 60.0, mr = 14.0;
  const double pw = kWidth - ml - mr;
  const double phase_h = record.phases.empty() ? 0.0 : (max_depth + 1) * 18.0;
  const double crit_h = 26.0;
  const double rank_row = nranks > 48 ? 7.0 : 10.0;
  const double ranks_h = draw_ranks ? nranks * rank_row : 0.0;
  double y = 8.0;
  const double y_phase = y;
  y += phase_h + (phase_h > 0 ? 12.0 : 0.0);
  const double y_crit = y;
  y += crit_h + 14.0;
  const double y_ranks = y;
  y += ranks_h + (draw_ranks ? 8.0 : 0.0);
  const double y_axis = y;
  const int height = static_cast<int>(y_axis + 26.0);

  auto xpos = [&](double t) { return ml + t / total * pw; };
  auto wid = [&](double d) { return std::max(d / total * pw, 0.75); };

  std::string svg;

  // Time gridlines + axis labels.
  for (int i = 0; i <= 5; ++i) {
    const double t = total * i / 5;
    svg += "<line x1=\"" + fmt_fixed(xpos(t), 1) + "\" y1=\"0\" x2=\"" +
           fmt_fixed(xpos(t), 1) + "\" y2=\"" + fmt_fixed(y_axis, 1) +
           "\" stroke=\"" + std::string(kGridline) + "\"></line>\n";
    svg += "<text x=\"" + fmt_fixed(xpos(t), 1) + "\" y=\"" +
           fmt_fixed(y_axis + 14, 1) + "\" text-anchor=\"middle\" fill=\"" +
           std::string(kInkMuted) + "\">" + escape_text(fmt_usec(t)) +
           "</text>\n";
  }

  // Band labels.
  auto band_label = [&](double yy, const std::string& text) {
    return "<text x=\"2\" y=\"" + fmt_fixed(yy, 1) + "\" fill=\"" +
           std::string(kInkSecondary) + "\">" + escape_text(text) +
           "</text>\n";
  };

  // Phases band.
  if (!record.phases.empty()) {
    svg += band_label(y_phase + 12, "phases");
    for (std::size_t i = 0; i < record.phases.size(); ++i) {
      const auto& p = record.phases[i];
      const double py = y_phase + phase_depth[i] * 18.0;
      const double w = wid(p.duration);
      svg += "<rect x=\"" + fmt_fixed(xpos(p.start), 1) + "\" y=\"" +
             fmt_fixed(py, 1) + "\" width=\"" + fmt_fixed(w, 1) +
             "\" height=\"14\" rx=\"2\" fill=\"#eceaf6\" stroke=\"" +
             std::string(series_color(6)) + "\"><title>" +
             escape_text(p.name + ": " + fmt_usec(p.start) + " + " +
                         fmt_usec(p.duration)) +
             "</title></rect>\n";
      if (w > 60.0)
        svg += "<text x=\"" + fmt_fixed(xpos(p.start) + 4, 1) + "\" y=\"" +
               fmt_fixed(py + 11, 1) + "\" fill=\"" +
               std::string(kInkSecondary) + "\">" + escape_text(p.name) +
               "</text>\n";
    }
  }

  // Critical-path band: one bar per segment, stacked nature colors.
  svg += band_label(y_crit + 14, "critical");
  for (const PathSegment& seg : path.segments) {
    const double x = xpos(seg.start);
    const double w = wid(seg.duration);
    const std::string tip =
        (seg.stage >= 0 ? "stage " + std::to_string(seg.stage) +
                              (seg.repeats > 1
                                   ? " x" + std::to_string(seg.repeats)
                                   : std::string())
                        : std::string("out-of-stage")) +
        " " + seg.what + " [" + report::to_string(seg.channel) + "]" +
        (seg.phase.empty() ? "" : " in " + seg.phase) + ": " +
        fmt_usec(seg.duration) + " (serialization " +
        fmt_usec(seg.serialization) + ", contention " +
        fmt_usec(seg.contention) + ", retransmission " +
        fmt_usec(seg.retransmission) + ")";
    // Stack the three natures left-to-right inside the segment width.
    const double parts[3] = {seg.serialization, seg.contention,
                             seg.retransmission};
    const double psum =
        std::max(parts[0] + parts[1] + parts[2], 1.0e-300);
    double off = 0.0;
    for (int k = 0; k < 3; ++k) {
      if (parts[k] <= 0.0) continue;
      const double wk = w * (parts[k] / psum);
      svg += "<rect x=\"" + fmt_fixed(x + off, 1) + "\" y=\"" +
             fmt_fixed(y_crit + 2, 1) + "\" width=\"" + fmt_fixed(wk, 1) +
             "\" height=\"20\" fill=\"" + std::string(series_color(k)) +
             "\"><title>" + escape_text(tip) + "</title></rect>\n";
      off += wk;
    }
    if (psum <= 1.0e-299 && seg.duration > 0.0) {
      // Degenerate split (shouldn't happen): neutral bar, tooltip intact.
      svg += "<rect x=\"" + fmt_fixed(x, 1) + "\" y=\"" +
             fmt_fixed(y_crit + 2, 1) + "\" width=\"" + fmt_fixed(w, 1) +
             "\" height=\"20\" fill=\"" + std::string(kGridline) +
             "\"><title>" + escape_text(tip) + "</title></rect>\n";
    }
  }

  // Per-rank band.
  std::string note;
  if (draw_ranks) {
    svg += band_label(y_ranks + 10, "ranks");
    // Rank row labels, thinned.
    const int stride = std::max(1, (nranks + 11) / 12);
    int row = 0;
    for (const Rank r : rank_set) {
      if (row % stride == 0)
        svg += "<text x=\"" + fmt_fixed(ml - 6, 1) + "\" y=\"" +
               fmt_fixed(y_ranks + row * rank_row + rank_row * 0.8, 1) +
               "\" text-anchor=\"end\" fill=\"" + std::string(kInkMuted) +
               "\">r" + std::to_string(r) + "</text>\n";
      ++row;
    }
    // Critical elements, matched by (stage, src, dst).
    std::set<std::tuple<int, Rank, Rank>> critical;
    for (const PathSegment& seg : path.segments)
      if (seg.stage >= 0 && seg.src != kNoRank)
        critical.emplace(seg.stage, seg.src, seg.dst);
    for (const auto& s : record.stages) {
      for (int k = s.first_transfer; k < s.first_transfer + s.num_transfers;
           ++k) {
        const auto& t = record.transfers[k];
        const double ty = y_ranks + row_of[t.dst] * rank_row + 1.0;
        // Stage duration spans all repeats; so does the bar.
        const double w = wid(t.duration * s.repeats);
        const bool crit = critical.count({t.stage, t.src, t.dst}) > 0;
        svg += "<rect x=\"" + fmt_fixed(xpos(s.start), 1) + "\" y=\"" +
               fmt_fixed(ty, 1) + "\" width=\"" + fmt_fixed(w, 1) +
               "\" height=\"" + fmt_fixed(rank_row - 2.0, 1) + "\" fill=\"" +
               std::string(series_color(channel_slot(t.channel))) + "\"" +
               (crit ? " stroke=\"" + std::string(kInkPrimary) +
                           "\" stroke-width=\"1.2\""
                     : std::string()) +
               "><title>" +
               escape_text("stage " + std::to_string(t.stage) + " r" +
                           std::to_string(t.src) + " -> r" +
                           std::to_string(t.dst) + " [" +
                           trace::to_string(t.channel) + "] " +
                           fmt_bytes(static_cast<double>(t.bytes)) + ", " +
                           fmt_usec(t.duration) +
                           (s.repeats > 1
                                ? " x" + std::to_string(s.repeats)
                                : std::string()) +
                           (crit ? " (critical)" : "")) +
               "</title></rect>\n";
      }
    }
  } else if (nranks > 0) {
    note = "Per-rank rows omitted: " + std::to_string(nranks) +
           " ranks exceed the " + std::to_string(kMaxRankRows) +
           "-row readability cap; the critical-path band above still covers "
           "every completion-time-determining element.";
  }

  std::string out = "<figure>\n";
  if (!caption.empty())
    out += "<figcaption class=\"legend\">" + escape_text(caption) +
           "</figcaption>\n";
  out += "<svg width=\"" + std::to_string(kWidth) + "\" height=\"" +
         std::to_string(height) + "\" role=\"img\" aria-label=\"" +
         escape_attr(caption.empty() ? std::string("timeline") : caption) +
         "\">\n" + svg + "</svg>\n</figure>\n";

  // Legends: nature split, then channels actually present.
  out += "<div class=\"legend\">critical-path split: " +
         swatch(series_color(0)) + "serialization &nbsp; " +
         swatch(series_color(1)) + "contention stall &nbsp; " +
         swatch(series_color(2)) + "retransmission</div>\n";
  if (draw_ranks) {
    std::set<trace::Channel> present;
    for (const auto& t : record.transfers) present.insert(t.channel);
    out += "<div class=\"legend\">transfer channels: ";
    for (const trace::Channel c : present)
      out += swatch(series_color(channel_slot(c))) +
             escape_text(trace::to_string(c)) + " &nbsp; ";
    out += "</div>\n";
  }
  if (!note.empty()) out += "<p class=\"intro\">" + escape_text(note) + "</p>\n";

  // Accessible twin: the critical path, exact values.
  std::vector<std::vector<std::string>> rows;
  for (const PathSegment& seg : path.segments)
    rows.push_back({seg.stage >= 0 ? std::to_string(seg.stage) : "-",
                    seg.what, report::to_string(seg.channel), seg.phase,
                    format_number(seg.start), format_number(seg.duration),
                    format_number(seg.serialization),
                    format_number(seg.contention),
                    format_number(seg.retransmission)});
  out += collapsible(
      "Critical-path segments (" + std::to_string(rows.size()) + ")",
      data_table({"stage", "element", "channel", "phase", "start (us)",
                  "duration (us)", "serialization", "contention",
                  "retransmission"},
                 rows));
  return out;
}

}  // namespace tarr::viz
