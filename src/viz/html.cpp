#include "viz/html.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace tarr::viz {

namespace {

struct Rgb {
  int r = 0, g = 0, b = 0;
};

Rgb parse_hex(const char* hex) {
  unsigned v = 0;
  std::sscanf(hex + 1, "%6x", &v);
  return {static_cast<int>((v >> 16) & 0xff), static_cast<int>((v >> 8) & 0xff),
          static_cast<int>(v & 0xff)};
}

std::string to_hex(const Rgb& c) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "#%02x%02x%02x", c.r, c.g, c.b);
  return buf;
}

Rgb lerp(const Rgb& a, const Rgb& b, double t) {
  auto mix = [t](int x, int y) {
    return static_cast<int>(std::lround(x + (y - x) * t));
  };
  return {mix(a.r, b.r), mix(a.g, b.g), mix(a.b, b.b)};
}

/// Sequential blue ramp, steps 100..700 (light -> dark).
constexpr const char* kSeqRamp[] = {"#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef",
                                    "#6da7ec", "#5598e7", "#3987e5", "#2a78d6",
                                    "#256abf", "#1c5cab", "#184f95", "#104281",
                                    "#0d366b"};
constexpr int kSeqSteps = static_cast<int>(std::size(kSeqRamp));

/// Categorical slots in fixed order (never cycled).
constexpr const char* kSeries[] = {"#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                                   "#e87ba4", "#008300", "#4a3aa7", "#e34948"};

constexpr const char* kDivNeutral = "#f0efec";
constexpr const char* kDivBlue = "#104281";   ///< relieved pole
constexpr const char* kDivRed = "#a82828";    ///< newly-loaded pole

/// line_chart's SVG size in pixels.
constexpr int kLineChartWidth = 560;
constexpr int kLineChartHeight = 220;

}  // namespace

std::string escape_text(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string escape_attr(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt_fixed(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

std::string fmt_bytes(double bytes) {
  const double b = std::fabs(bytes);
  if (b < 1024.0) return fmt_fixed(bytes, 0) + " B";
  if (b < 1024.0 * 1024.0) return fmt_fixed(bytes / 1024.0, 1) + " KB";
  if (b < 1024.0 * 1024.0 * 1024.0)
    return fmt_fixed(bytes / (1024.0 * 1024.0), 1) + " MB";
  return fmt_fixed(bytes / (1024.0 * 1024.0 * 1024.0), 2) + " GB";
}

std::string fmt_usec(double us) {
  const double u = std::fabs(us);
  if (u < 1000.0) return fmt_fixed(us, 1) + " us";
  if (u < 1.0e6) return fmt_fixed(us / 1000.0, 2) + " ms";
  return fmt_fixed(us / 1.0e6, 3) + " s";
}

std::string seq_color(double t) {
  t = std::clamp(t, 0.0, 1.0);
  const double pos = t * (kSeqSteps - 1);
  const int i = std::min(static_cast<int>(pos), kSeqSteps - 2);
  return to_hex(
      lerp(parse_hex(kSeqRamp[i]), parse_hex(kSeqRamp[i + 1]), pos - i));
}

std::string div_color(double t) {
  t = std::clamp(t, -1.0, 1.0);
  const Rgb neutral = parse_hex(kDivNeutral);
  if (t < 0.0) return to_hex(lerp(neutral, parse_hex(kDivBlue), -t));
  return to_hex(lerp(neutral, parse_hex(kDivRed), t));
}

const char* series_color(int slot) {
  if (slot < 0 || slot >= static_cast<int>(std::size(kSeries)))
    return "#898781";
  return kSeries[slot];
}

Page::Page(std::string title) : title_(std::move(title)) {}

void Page::add_section(const std::string& title, const std::string& intro,
                       std::string body_html) {
  sections_.push_back({title, intro, std::move(body_html)});
}

std::string Page::html() const {
  std::string out;
  out += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n";
  out += "<meta charset=\"utf-8\">\n";
  out += "<title>" + escape_text(title_) + "</title>\n";
  out +=
      "<style>\n"
      ":root { color-scheme: light; }\n"
      "body { background: #f9f9f7; color: #0b0b0b; margin: 0;\n"
      "  font: 14px/1.5 system-ui, -apple-system, \"Segoe UI\", sans-serif; }\n"
      "main { max-width: 1280px; margin: 0 auto; padding: 16px 24px 48px; }\n"
      "h1 { font-size: 22px; font-weight: 600; margin: 12px 0 4px; }\n"
      "h2 { font-size: 17px; font-weight: 600; margin: 28px 0 2px; }\n"
      "p.intro { color: #52514e; margin: 2px 0 10px; max-width: 72em; }\n"
      "section { background: #fcfcfb; border: 1px solid rgba(11,11,11,0.10);\n"
      "  border-radius: 8px; padding: 12px 16px 16px; margin: 14px 0; }\n"
      "svg { display: block; }\n"
      "svg text { font: 11px system-ui, -apple-system, \"Segoe UI\","
      " sans-serif; }\n"
      "table.viz { border-collapse: collapse; margin: 8px 0;\n"
      "  font-variant-numeric: tabular-nums; }\n"
      "table.viz th { text-align: left; color: #52514e; font-weight: 600;\n"
      "  border-bottom: 1px solid #c3c2b7; padding: 2px 12px 2px 0; }\n"
      "table.viz td { border-bottom: 1px solid #e1e0d9;\n"
      "  padding: 2px 12px 2px 0; }\n"
      "details { margin: 6px 0; }\n"
      "details summary { color: #52514e; cursor: pointer; }\n"
      ".panelrow { display: flex; flex-wrap: wrap; gap: 20px;\n"
      "  align-items: flex-start; }\n"
      ".panel h3 { font-size: 13px; font-weight: 600; margin: 4px 0; }\n"
      ".legend { color: #52514e; font-size: 12px; margin: 6px 0; }\n"
      ".legend svg { display: inline-block; vertical-align: middle; }\n"
      ".cards { display: flex; flex-wrap: wrap; gap: 12px; }\n"
      ".card { border: 1px solid #e1e0d9; border-radius: 6px;\n"
      "  padding: 8px 10px; min-width: 200px; }\n"
      ".card .name { color: #52514e; font-size: 12px; }\n"
      ".card .value { font-size: 18px; font-weight: 600; }\n"
      ".card .delta { font-size: 12px; }\n"
      ".flag-bad { color: " + std::string(kStatusCritical) +
      "; font-weight: 600; }\n"
      ".flag-good { color: #006300; font-weight: 600; }\n"
      "</style>\n</head>\n<body>\n<main>\n";
  out += "<h1>" + escape_text(title_) + "</h1>\n";
  for (const auto& s : sections_) {
    out += "<section>\n<h2>" + escape_text(s.title) + "</h2>\n";
    if (!s.intro.empty())
      out += "<p class=\"intro\">" + escape_text(s.intro) + "</p>\n";
    out += s.body;
    out += "</section>\n";
  }
  out += "</main>\n</body>\n</html>\n";
  return out;
}

std::string data_table(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows) {
  std::string out = "<table class=\"viz\">\n<tr>";
  for (const auto& h : header) out += "<th>" + escape_text(h) + "</th>";
  out += "</tr>\n";
  for (const auto& row : rows) {
    out += "<tr>";
    for (const auto& cell : row) out += "<td>" + escape_text(cell) + "</td>";
    out += "</tr>\n";
  }
  out += "</table>\n";
  return out;
}

std::string collapsible(const std::string& summary, const std::string& body) {
  return "<details><summary>" + escape_text(summary) + "</summary>\n" + body +
         "</details>\n";
}

std::string seq_legend(double lo, double hi, bool as_bytes) {
  const int w = 160, h = 10, steps = 32;
  std::string out = "<div class=\"legend\">";
  out += as_bytes ? fmt_bytes(lo) : fmt_fixed(lo, 1);
  out += " <svg width=\"" + std::to_string(w) + "\" height=\"" +
         std::to_string(h) + "\" role=\"img\" aria-label=\"color scale\">";
  for (int i = 0; i < steps; ++i) {
    out += "<rect x=\"" + fmt_fixed(static_cast<double>(i) * w / steps, 1) +
           "\" y=\"0\" width=\"" + fmt_fixed(static_cast<double>(w) / steps, 1) +
           "\" height=\"" + std::to_string(h) + "\" fill=\"" +
           seq_color((i + 0.5) / steps) + "\"></rect>";
  }
  out += "</svg> ";
  out += as_bytes ? fmt_bytes(hi) : fmt_fixed(hi, 1);
  out += "</div>\n";
  return out;
}

std::string div_legend(const std::string& neg_label,
                       const std::string& pos_label) {
  auto swatch = [](const std::string& color) {
    return "<svg width=\"12\" height=\"12\"><rect width=\"12\" height=\"12\" "
           "fill=\"" + color + "\"></rect></svg> ";
  };
  return "<div class=\"legend\">" + swatch(div_color(-1.0)) +
         escape_text(neg_label) + " &nbsp; " + swatch(div_color(0.0)) +
         "unchanged &nbsp; " + swatch(div_color(1.0)) +
         escape_text(pos_label) + "</div>\n";
}

std::string line_chart(const std::string& caption,
                       const std::vector<std::string>& x_labels,
                       const std::vector<ChartSeries>& series,
                       const std::string& y_label) {
  const int ml = 64, mr = 12, mt = 20, mb = 34;
  const int w = kLineChartWidth, h = kLineChartHeight;
  const int pw = w - ml - mr, ph = h - mt - mb;
  const int n = static_cast<int>(x_labels.size());

  double lo = 0.0, hi = -1.0e300;
  for (const auto& s : series)
    for (const double v : s.y) {
      if (std::isnan(v)) continue;
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
  if (hi < lo) { lo = 0.0; hi = 1.0; }
  if (hi == lo) hi = lo + (lo == 0.0 ? 1.0 : std::fabs(lo) * 0.1);

  auto xpos = [&](int i) {
    return ml + (n <= 1 ? pw / 2.0
                        : static_cast<double>(i) * pw / (n - 1));
  };
  auto ypos = [&](double v) { return mt + (hi - v) / (hi - lo) * ph; };

  std::string out = "<figure>\n";
  if (!caption.empty())
    out += "<figcaption class=\"legend\">" + escape_text(caption) +
           "</figcaption>\n";
  out += "<svg width=\"" + std::to_string(w) + "\" height=\"" +
         std::to_string(h) + "\" role=\"img\" aria-label=\"" +
         escape_attr(caption) + "\">\n";

  // Hairline grid + y ticks.
  const int ticks = 4;
  for (int i = 0; i <= ticks; ++i) {
    const double v = lo + (hi - lo) * i / ticks;
    const double y = ypos(v);
    out += "<line x1=\"" + std::to_string(ml) + "\" y1=\"" + fmt_fixed(y, 1) +
           "\" x2=\"" + std::to_string(ml + pw) + "\" y2=\"" + fmt_fixed(y, 1) +
           "\" stroke=\"" + std::string(kGridline) + "\"></line>\n";
    out += "<text x=\"" + std::to_string(ml - 6) + "\" y=\"" +
           fmt_fixed(y + 3.5, 1) + "\" text-anchor=\"end\" fill=\"" +
           std::string(kInkMuted) + "\">" + escape_text(fmt_fixed(v, 1)) +
           "</text>\n";
  }
  // Baseline + x tick labels (thin to at most 8 labels).
  out += "<line x1=\"" + std::to_string(ml) + "\" y1=\"" +
         std::to_string(mt + ph) + "\" x2=\"" + std::to_string(ml + pw) +
         "\" y2=\"" + std::to_string(mt + ph) + "\" stroke=\"" +
         std::string(kAxis) + "\"></line>\n";
  const int stride = std::max(1, (n + 7) / 8);
  for (int i = 0; i < n; i += stride) {
    out += "<text x=\"" + fmt_fixed(xpos(i), 1) + "\" y=\"" +
           std::to_string(mt + ph + 14) + "\" text-anchor=\"middle\" fill=\"" +
           std::string(kInkMuted) + "\">" + escape_text(x_labels[i]) +
           "</text>\n";
  }
  if (!y_label.empty()) {
    out += "<text x=\"" + std::to_string(ml) + "\" y=\"" + std::to_string(12) +
           "\" fill=\"" + std::string(kInkSecondary) + "\">" +
           escape_text(y_label) + "</text>\n";
  }

  // Series: 2px polyline + >=8px markers, each marker carrying a tooltip.
  for (const auto& s : series) {
    const char* color = series_color(s.color_slot);
    std::string points;
    for (int i = 0; i < n && i < static_cast<int>(s.y.size()); ++i) {
      if (std::isnan(s.y[i])) continue;
      if (!points.empty()) points += " ";
      points += fmt_fixed(xpos(i), 1) + "," + fmt_fixed(ypos(s.y[i]), 1);
    }
    if (!points.empty())
      out += "<polyline points=\"" + points +
             "\" fill=\"none\" stroke=\"" + std::string(color) +
             "\" stroke-width=\"2\"></polyline>\n";
    for (int i = 0; i < n && i < static_cast<int>(s.y.size()); ++i) {
      if (std::isnan(s.y[i])) continue;
      out += "<circle cx=\"" + fmt_fixed(xpos(i), 1) + "\" cy=\"" +
             fmt_fixed(ypos(s.y[i]), 1) + "\" r=\"4\" fill=\"" +
             std::string(color) + "\" stroke=\"" + std::string(kSurface) +
             "\" stroke-width=\"2\"><title>" +
             escape_text(s.label + " @ " + x_labels[i] + ": " +
                         format_number(s.y[i])) +
             "</title></circle>\n";
    }
  }
  out += "</svg>\n";

  // Legend only when identity needs disambiguation (>= 2 series).
  if (series.size() >= 2) {
    out += "<div class=\"legend\">";
    for (const auto& s : series) {
      out += "<svg width=\"12\" height=\"12\"><rect width=\"12\" height=\"12\""
             " fill=\"" + std::string(series_color(s.color_slot)) +
             "\"></rect></svg> " + escape_text(s.label) + " &nbsp; ";
    }
    out += "</div>\n";
  }
  out += "</figure>\n";
  return out;
}

}  // namespace tarr::viz
