#include "viz/findings.hpp"

#include <vector>

#include "viz/html.hpp"

namespace tarr::viz {

namespace {

/// Warning sits between the reserved status colors; like them it is always
/// paired with the text label.
constexpr const char* kStatusWarning = "#c77400";

const char* severity_color(insight::Severity s) {
  switch (s) {
    case insight::Severity::Critical:
      return kStatusCritical;
    case insight::Severity::Warning:
      return kStatusWarning;
    case insight::Severity::Info:
      return kInkSecondary;
  }
  return kInkSecondary;
}

std::string severity_badge(insight::Severity s) {
  std::string label = insight::to_string(s);
  for (char& c : label) c = static_cast<char>(c - 'a' + 'A');
  return "<span style=\"color:" + std::string(severity_color(s)) +
         ";font-weight:bold\">[" + escape_text(label) + "]</span>";
}

}  // namespace

std::string render_findings_section(const insight::Diagnosis& d) {
  std::string body;

  // Headline figures.
  std::vector<std::vector<std::string>> head;
  head.push_back({"critical-path total", fmt_usec(d.critical_path.total)});
  head.push_back({"load imbalance (max/mean busy)",
                  fmt_fixed(d.imbalance.imbalance, 2)});
  head.push_back({"Jain fairness (cables)",
                  fmt_fixed(d.imbalance.jain_links, 3)});
  head.push_back({"Jain fairness (QPI)", fmt_fixed(d.imbalance.jain_qpi, 3)});
  body += data_table({"headline", "value"}, head);

  if (d.findings.empty()) {
    body += "<p>no findings &mdash; the run looks balanced.</p>\n";
    return body;
  }

  for (const auto& f : d.findings) {
    body += "<p>" + severity_badge(f.severity) + " " + escape_text(f.title) +
            " <em>(" + escape_text(insight::to_string(f.kind)) +
            ")</em><br>" + escape_text(f.detail) +
            "<br>knob: " + escape_text(f.knob) + "</p>\n";
    if (!f.evidence.empty()) {
      std::vector<std::vector<std::string>> rows;
      for (const auto& e : f.evidence)
        rows.push_back({e.name, format_number(e.value)});
      body += collapsible("evidence: " + f.title,
                          data_table({"name", "value"}, rows));
    }
  }

  // Straggler detail: the top-K busiest ranks with their exact loads.
  if (!d.imbalance.stragglers.empty()) {
    std::vector<std::vector<std::string>> rows;
    for (const Rank r : d.imbalance.stragglers) {
      const auto& rl = d.imbalance.ranks[static_cast<std::size_t>(r)];
      rows.push_back({std::to_string(rl.rank), std::to_string(rl.core),
                      format_number(rl.busy), format_number(rl.stall),
                      format_number(static_cast<double>(rl.transfers))});
    }
    body += collapsible(
        "Busiest ranks (exact traced sums)",
        data_table({"rank", "core", "busy (us)", "stall (us)", "transfers"},
                   rows));
  }
  return body;
}

}  // namespace tarr::viz
