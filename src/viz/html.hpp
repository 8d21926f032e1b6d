#pragma once

#include <string>
#include <vector>

#include "common/serialize.hpp"

/// \file html.hpp
/// Deterministic HTML/SVG building blocks of tarr::viz, the dashboard
/// renderer (see docs/OBSERVABILITY.md, "Dashboards").
///
/// Everything tarr::viz emits is a single self-contained HTML file: inline
/// CSS, inline SVG, no scripts, no external assets — it opens from a CI
/// artifact tab or an email attachment exactly as it opened locally.  The
/// same determinism contract as the Tracer applies: the serialized bytes
/// are a pure function of the (simulated, seeded) inputs, so two same-seed
/// runs produce byte-identical dashboards and CI can `cmp` them.  That is
/// why every number passes through the locale-independent formatters here
/// (exact values through tarr::format_number) and no view ever embeds
/// wall-clock quantities.
///
/// Color discipline (one rule per job):
///   * magnitude  -> the sequential blue ramp (seq_color);
///   * polarity   -> the diverging blue<->red scale with a neutral gray
///                   midpoint (div_color) — blue = load relieved, red =
///                   newly loaded;
///   * identity   -> fixed categorical slots (series_color), assigned in a
///                   fixed order and never cycled;
///   * state      -> the reserved status colors (kStatusCritical/kGood),
///                   always paired with a text label, never color alone.
/// Pages render on a fixed light surface (color-scheme: light) because the
/// SVG fills are computed inline per datum; a half-themed dark render would
/// be worse than a consistent light one.

namespace tarr::viz {

/// Escape text content for an HTML element body (& < >).
std::string escape_text(const std::string& s);

/// Escape a string for a double-quoted HTML/SVG attribute (& < > " ').
std::string escape_attr(const std::string& s);

/// Fixed-precision formatting for display (locale-independent %.{prec}f).
std::string fmt_fixed(double v, int prec);

/// Human-readable byte count ("768 B", "1.5 KB", "2.3 MB"); deterministic.
std::string fmt_bytes(double bytes);

/// Human-readable simulated duration ("3.1 us", "4.56 ms"); deterministic.
std::string fmt_usec(double us);

/// Sequential (magnitude) color: t in [0,1] mapped onto the blue ramp,
/// light (near zero) to dark.  Values outside [0,1] are clamped.
std::string seq_color(double t);

/// Diverging (polarity) color: t in [-1,1]; negative = blue (relieved),
/// positive = red (newly loaded), 0 = neutral gray.  Clamped.
std::string div_color(double t);

/// Fixed categorical palette, slots 0..7 (blue, orange, aqua, yellow,
/// magenta, green, violet, red).  Slots past 7 fold back to gray — callers
/// should bucket to "other" before that happens.
const char* series_color(int slot);

/// Reserved status colors (never used for series).
inline constexpr const char* kStatusCritical = "#d03b3b";
inline constexpr const char* kStatusGood = "#0ca30c";

/// Chrome/ink tokens shared by every view (light surface).
inline constexpr const char* kSurface = "#fcfcfb";
inline constexpr const char* kInkPrimary = "#0b0b0b";
inline constexpr const char* kInkSecondary = "#52514e";
inline constexpr const char* kInkMuted = "#898781";
inline constexpr const char* kGridline = "#e1e0d9";
inline constexpr const char* kAxis = "#c3c2b7";

/// Accumulates titled sections into one self-contained page.
class Page {
 public:
  explicit Page(std::string title);

  /// Append one section: an <h2> title, an optional one-paragraph intro
  /// (plain text, escaped), and a pre-rendered HTML body.
  void add_section(const std::string& title, const std::string& intro,
                   std::string body_html);

  /// Serialize the full document (doctype, inline CSS, all sections).
  std::string html() const;

 private:
  std::string title_;
  struct Section {
    std::string title;
    std::string intro;
    std::string body;
  };
  std::vector<Section> sections_;
};

/// One series of a line chart.  Missing points are encoded as NaN and
/// simply skipped.
struct ChartSeries {
  std::string label;
  std::vector<double> y;
  int color_slot = 0;  ///< categorical slot (see series_color)
};

/// A small multi-series line chart with markers, hairline grid, a legend
/// (only when there are >= 2 series) and a <title> tooltip per marker.
/// `x_labels` are categorical tick labels (one per point); `y_label` is the
/// axis caption, e.g. "mean latency (us)".  The y range always includes 0.
std::string line_chart(const std::string& caption,
                       const std::vector<std::string>& x_labels,
                       const std::vector<ChartSeries>& series,
                       const std::string& y_label);

/// A plain data table (header + rows, all cells escaped) — the accessible
/// twin every chart ships next to, usually inside `collapsible`.
std::string data_table(const std::vector<std::string>& header,
                       const std::vector<std::vector<std::string>>& rows);

/// Wrap `body_html` in a collapsed <details> block labeled `summary`.
std::string collapsible(const std::string& summary, const std::string& body);

/// A horizontal sequential-ramp legend from `lo` to `hi` (formatted with
/// `fmt_bytes` when `as_bytes`, else `fmt_fixed(.,1)`).
std::string seq_legend(double lo, double hi, bool as_bytes);

/// A three-swatch diverging legend: relieved / unchanged / newly loaded.
std::string div_legend(const std::string& neg_label,
                       const std::string& pos_label);

}  // namespace tarr::viz
