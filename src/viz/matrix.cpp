#include "viz/matrix.hpp"

#include <algorithm>
#include <map>

namespace tarr::viz {

namespace {

/// SVG grid for one matrix against a shared scale.
std::string matrix_svg(const CommMatrix& m, double scale_max,
                       const std::string& label) {
  const int n = std::max(1, m.n);
  // Cell size adapts so the grid stays between ~160 and ~480 px.
  const double cell = std::clamp(440.0 / n, 4.0, 26.0);
  const double ml = 34.0, mt = 10.0;
  const int w = static_cast<int>(ml + n * cell + 8);
  const int h = static_cast<int>(mt + n * cell + 28);
  const double lo_cap = std::max(1.0, scale_max);

  std::string out = "<svg width=\"" + std::to_string(w) + "\" height=\"" +
                    std::to_string(h) + "\" role=\"img\" aria-label=\"" +
                    escape_attr(label) + "\">\n";
  for (int i = 0; i < m.n; ++i) {
    for (int j = 0; j < m.n; ++j) {
      const double b = m.cell(i, j);
      const std::string color =
          b > 0.0 ? seq_color(b / lo_cap) : std::string("#f4f3f1");
      out += "<rect x=\"" + fmt_fixed(ml + j * cell, 1) + "\" y=\"" +
             fmt_fixed(mt + i * cell, 1) + "\" width=\"" +
             fmt_fixed(cell - (cell > 6 ? 1.0 : 0.0), 1) + "\" height=\"" +
             fmt_fixed(cell - (cell > 6 ? 1.0 : 0.0), 1) + "\" fill=\"" +
             color + "\"><title>" +
             escape_text(m.labels[i] + " -> " + m.labels[j] + ": " +
                         fmt_bytes(b) + " (" + format_number(b) + " B)") +
             "</title></rect>\n";
    }
  }
  // Sparse axis labels (at most 8 per axis).
  const int stride = std::max(1, (m.n + 7) / 8);
  for (int i = 0; i < m.n; i += stride) {
    out += "<text x=\"" + fmt_fixed(ml - 4, 1) + "\" y=\"" +
           fmt_fixed(mt + (i + 0.7) * cell, 1) + "\" text-anchor=\"end\" "
           "fill=\"" + std::string(kInkMuted) + "\">" +
           escape_text(m.labels[i]) + "</text>\n";
    out += "<text x=\"" + fmt_fixed(ml + (i + 0.5) * cell, 1) + "\" y=\"" +
           fmt_fixed(mt + m.n * cell + 14, 1) + "\" text-anchor=\"middle\" "
           "fill=\"" + std::string(kInkMuted) + "\">" +
           escape_text(m.labels[i]) + "</text>\n";
  }
  out += "</svg>\n";
  return out;
}

std::string matrix_table(const CommMatrix& m, const std::string& name) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < m.n; ++i)
    for (int j = 0; j < m.n; ++j)
      if (m.cell(i, j) > 0.0)
        rows.push_back({m.labels[i], m.labels[j], format_number(m.cell(i, j))});
  if (rows.empty()) return "";
  return collapsible(
      (name.empty() ? std::string() : name + ": ") + "nonzero cells (" +
          std::to_string(rows.size()) + ")",
      data_table({"src", "dst", "bytes"}, rows));
}

}  // namespace

CommMatrix build_comm_matrix(const trace::ScheduleRecord& record,
                             const topology::Machine& machine,
                             int aggregate_above) {
  // Which core did each observed rank run on?  (The record carries the
  // placement on every transfer; ranks the run never touched don't matter.)
  std::map<Rank, CoreId> core_of;
  for (const auto& t : record.transfers) {
    core_of.emplace(t.src, t.src_core);
    core_of.emplace(t.dst, t.dst_core);
  }

  CommMatrix m;
  m.by_node = static_cast<int>(core_of.size()) > aggregate_above;

  std::map<Rank, int> row_of;  // rank -> matrix row
  if (m.by_node) {
    m.n = machine.num_nodes();
    for (const auto& [rank, core] : core_of)
      row_of[rank] = machine.node_of_core(core);
    m.labels.reserve(m.n);
    for (int i = 0; i < m.n; ++i) {
      std::string label = "n";
      label += std::to_string(i);
      m.labels.push_back(std::move(label));
    }
  } else {
    // Physical ordering: ranks sorted by the core they occupy, so locality
    // reads as diagonal blocks.  std::map iteration is already core-sorted
    // once we invert the mapping.
    std::map<CoreId, Rank> by_core;
    for (const auto& [rank, core] : core_of) by_core.emplace(core, rank);
    m.n = static_cast<int>(by_core.size());
    int row = 0;
    for (const auto& [core, rank] : by_core) {
      row_of[rank] = row++;
      std::string label = "r";
      label += std::to_string(rank);
      m.labels.push_back(std::move(label));
    }
  }
  m.bytes.assign(static_cast<std::size_t>(m.n) * std::max(m.n, 1), 0.0);

  // Logical bytes weighted by stage repeats (channel_flows convention).
  for (const auto& s : record.stages) {
    for (int k = s.first_transfer; k < s.first_transfer + s.num_transfers;
         ++k) {
      const auto& t = record.transfers[k];
      const double b = static_cast<double>(t.bytes) * s.repeats;
      const int i = row_of[t.src], j = row_of[t.dst];
      m.bytes[static_cast<std::size_t>(i) * m.n + j] += b;
      m.total_bytes += b;
    }
  }
  for (const double b : m.bytes) m.max_bytes = std::max(m.max_bytes, b);
  return m;
}

std::string render_comm_matrix(const CommMatrix& m,
                               const std::string& caption) {
  std::string out = "<figure>\n";
  if (!caption.empty())
    out += "<figcaption class=\"legend\">" + escape_text(caption) +
           "</figcaption>\n";
  if (m.n == 0) {
    out += "<p class=\"intro\">No transfers were recorded.</p>\n</figure>\n";
    return out;
  }
  out += matrix_svg(m, m.max_bytes, caption);
  out += "</figure>\n";
  out += seq_legend(0.0, std::max(1.0, m.max_bytes), /*as_bytes=*/true);
  out += matrix_table(m, "");
  return out;
}

std::string render_comm_matrix_pair(const CommMatrix& a,
                                    const std::string& caption_a,
                                    const CommMatrix& b,
                                    const std::string& caption_b) {
  const double scale = std::max(a.max_bytes, b.max_bytes);
  std::string out = "<div class=\"panelrow\">\n";
  out += "<div class=\"panel\"><h3>" + escape_text(caption_a) + "</h3>\n";
  out += a.n > 0 ? matrix_svg(a, scale, caption_a)
                 : "<p class=\"intro\">No transfers were recorded.</p>\n";
  out += "</div>\n<div class=\"panel\"><h3>" + escape_text(caption_b) +
         "</h3>\n";
  out += b.n > 0 ? matrix_svg(b, scale, caption_b)
                 : "<p class=\"intro\">No transfers were recorded.</p>\n";
  out += "</div>\n</div>\n";
  out += seq_legend(0.0, std::max(1.0, scale), /*as_bytes=*/true);
  out += matrix_table(a, caption_a);
  out += matrix_table(b, caption_b);
  return out;
}

}  // namespace tarr::viz
