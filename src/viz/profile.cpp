#include "viz/profile.hpp"

#include "viz/html.hpp"

namespace tarr::viz {

std::string render_profile_section(const prof::Profile& p,
                                   const std::string& label) {
  if (p.entries.empty()) return std::string();
  const prof::ProfileEntry& root = p.entries.front();
  const double grand = root.work_total;

  // Scope table, built by hand (data_table escapes cells; this one embeds
  // indentation and inline share-of-work bars).  Deterministic counters
  // only — wall time stays in the opt-in CSV exports.
  std::string body = "<table class=\"viz\">\n<tr>";
  for (const char* h :
       {"scope", "calls", "work (self)", "work (total)", "share of work"})
    body += std::string("<th>") + h + "</th>";
  body += "</tr>\n";
  for (const prof::ProfileEntry& e : p.entries) {
    const double share = grand > 0.0 ? e.work_total / grand : 0.0;
    std::string name;
    for (int i = 1; i < e.depth; ++i) name += "&nbsp;&nbsp;&nbsp;";
    name += escape_text(e.parent < 0 ? "(root)" : e.name);
    body += "<tr><td>" + name + "</td><td>" +
            escape_text(format_number(static_cast<double>(e.calls))) +
            "</td><td>" +
            escape_text(format_number(e.work_self)) + "</td><td>" +
            escape_text(format_number(e.work_total)) + "</td><td>" +
            "<span style=\"display:inline-block;height:9px;width:" +
            fmt_fixed(share * 120.0, 1) + "px;background:" +
            seq_color(share) + "\"></span> " + fmt_fixed(share * 100.0, 1) +
            "%</td></tr>\n";
  }
  body += "</table>\n";

  // Counter detail: root totals of every named counter.
  if (!root.counters.empty()) {
    std::vector<std::vector<std::string>> crow;
    for (const auto& [name, m] : root.counters)
      crow.push_back({name, format_number(m.total)});
    body += collapsible(label + ": work-counter totals",
                        data_table({"counter", "total"}, crow));
  }
  if (p.mem_tracked) {
    std::vector<std::vector<std::string>> mrow;
    mrow.push_back({"allocated bytes (cumulative)",
                    fmt_bytes(static_cast<double>(root.mem_bytes_total))});
    mrow.push_back({"allocations",
                    format_number(static_cast<double>(root.mem_allocs_total))});
    body += collapsible(label + ": allocation pressure",
                        data_table({"metric", "value"}, mrow));
  }
  return body;
}

}  // namespace tarr::viz
