#include "viz/topo.hpp"

#include <algorithm>
#include <cmath>

namespace tarr::viz {

namespace {

using topology::Machine;
using topology::SwitchGraph;
using topology::VertexKind;

/// Computed drawing geometry of a switch graph: vertices bucketed into
/// horizontal layers (spine on top, hosts at the bottom), evenly spaced.
struct Layout {
  int width = 0;
  int height = 0;
  std::vector<double> x, y;  ///< per vertex id
};

int layer_of(VertexKind k) {
  switch (k) {
    case VertexKind::SpineSwitch: return 0;
    case VertexKind::LineSwitch: return 1;
    case VertexKind::Switch: return 2;
    case VertexKind::LeafSwitch: return 3;
    case VertexKind::Host: return 4;
  }
  return 2;
}

Layout layout_graph(const SwitchGraph& net) {
  const int kLayers = 5;
  std::vector<std::vector<NetVertexId>> rows(kLayers);
  for (NetVertexId v = 0; v < net.num_vertices(); ++v)
    rows[layer_of(net.vertex(v).kind)].push_back(v);

  Layout lay;
  int widest = 1;
  for (const auto& row : rows)
    widest = std::max(widest, static_cast<int>(row.size()));
  lay.width = std::max(760, widest * 30 + 120);
  lay.x.assign(net.num_vertices(), 0.0);
  lay.y.assign(net.num_vertices(), 0.0);

  const double margin = 50.0;
  double y = 36.0;
  for (const auto& row : rows) {
    if (row.empty()) continue;
    const double span = lay.width - 2 * margin;
    for (std::size_t i = 0; i < row.size(); ++i) {
      lay.x[row[i]] = margin + (i + 0.5) * span / row.size();
      lay.y[row[i]] = y;
    }
    y += 96.0;
  }
  lay.height = static_cast<int>(y - 96.0 + 64.0);
  return lay;
}

std::string vertex_label(const SwitchGraph& net, NetVertexId v) {
  const auto& vx = net.vertex(v);
  return vx.name.empty() ? ("v" + std::to_string(v)) : vx.name;
}

/// One directed stroke of a link: offset perpendicular to the edge so the
/// two directions sit side by side, with an arrow-free convention — the
/// stroke closer to its *source* end's right-hand side carries that
/// direction (tooltips state it in words, so the geometry need not).
std::string link_stroke(const Layout& lay, NetVertexId a, NetVertexId b,
                        int side, const std::string& color, double width,
                        const std::string& tooltip) {
  const double dx = lay.x[b] - lay.x[a], dy = lay.y[b] - lay.y[a];
  const double len = std::max(1.0, std::sqrt(dx * dx + dy * dy));
  const double ox = -dy / len * 2.4 * (side == 0 ? 1.0 : -1.0);
  const double oy = dx / len * 2.4 * (side == 0 ? 1.0 : -1.0);
  return "<line x1=\"" + fmt_fixed(lay.x[a] + ox, 1) + "\" y1=\"" +
         fmt_fixed(lay.y[a] + oy, 1) + "\" x2=\"" + fmt_fixed(lay.x[b] + ox, 1) +
         "\" y2=\"" + fmt_fixed(lay.y[b] + oy, 1) + "\" stroke=\"" + color +
         "\" stroke-width=\"" + fmt_fixed(width, 1) +
         "\" stroke-linecap=\"round\"><title>" + escape_text(tooltip) +
         "</title></line>\n";
}

/// Host glyph: a small rect split into per-direction QPI halves (left half
/// = socket 0 -> 1 traffic, right half = the reverse), named underneath.
std::string host_glyph(const Layout& lay, NetVertexId v, const std::string& name,
                       const std::string& color0, const std::string& color1,
                       const std::string& tip0, const std::string& tip1,
                       bool label) {
  const double w = 16.0, h = 12.0;
  const double x = lay.x[v] - w / 2, y = lay.y[v] - h / 2;
  std::string out;
  out += "<rect x=\"" + fmt_fixed(x, 1) + "\" y=\"" + fmt_fixed(y, 1) +
         "\" width=\"" + fmt_fixed(w / 2, 1) + "\" height=\"" + fmt_fixed(h, 1) +
         "\" fill=\"" + color0 + "\"><title>" + escape_text(tip0) +
         "</title></rect>\n";
  out += "<rect x=\"" + fmt_fixed(x + w / 2, 1) + "\" y=\"" + fmt_fixed(y, 1) +
         "\" width=\"" + fmt_fixed(w / 2, 1) + "\" height=\"" + fmt_fixed(h, 1) +
         "\" fill=\"" + color1 + "\"><title>" + escape_text(tip1) +
         "</title></rect>\n";
  out += "<rect x=\"" + fmt_fixed(x, 1) + "\" y=\"" + fmt_fixed(y, 1) +
         "\" width=\"" + fmt_fixed(w, 1) + "\" height=\"" + fmt_fixed(h, 1) +
         "\" fill=\"none\" stroke=\"" + std::string(kAxis) + "\"></rect>\n";
  if (label)
    out += "<text x=\"" + fmt_fixed(lay.x[v], 1) + "\" y=\"" +
           fmt_fixed(y + h + 12, 1) + "\" text-anchor=\"middle\" fill=\"" +
           std::string(kInkMuted) + "\">" + escape_text(name) + "</text>\n";
  return out;
}

/// Switch glyph: circle + name.
std::string switch_glyph(const Layout& lay, NetVertexId v,
                         const std::string& name) {
  std::string out;
  out += "<circle cx=\"" + fmt_fixed(lay.x[v], 1) + "\" cy=\"" +
         fmt_fixed(lay.y[v], 1) + "\" r=\"7\" fill=\"" + std::string(kSurface) +
         "\" stroke=\"" + std::string(kInkSecondary) +
         "\" stroke-width=\"1.5\"><title>" + escape_text(name) +
         "</title></circle>\n";
  out += "<text x=\"" + fmt_fixed(lay.x[v], 1) + "\" y=\"" +
         fmt_fixed(lay.y[v] - 11, 1) + "\" text-anchor=\"middle\" fill=\"" +
         std::string(kInkMuted) + "\">" + escape_text(name) + "</text>\n";
  return out;
}

std::string dir_tip(const SwitchGraph& net, LinkId l, int dir, double bytes) {
  const auto& lk = net.link(l);
  const NetVertexId from = dir == 0 ? lk.a : lk.b;
  const NetVertexId to = dir == 0 ? lk.b : lk.a;
  return "cable " + std::to_string(l) + " (" + vertex_label(net, from) +
         " -> " + vertex_label(net, to) + ", capacity " +
         std::to_string(lk.capacity) + "): " + fmt_bytes(bytes) + " (" +
         format_number(bytes) + " B)";
}

std::string qpi_tip(NodeId n, int dir, double bytes) {
  return "node " + std::to_string(n) + " QPI " +
         (dir == 0 ? "socket 0 -> 1" : "socket 1 -> 0") + ": " +
         fmt_bytes(bytes) + " (" + format_number(bytes) + " B)";
}

}  // namespace

TopoHeatmap build_topo_heatmap(const Machine& machine,
                               const trace::ScheduleRecord& record) {
  TopoHeatmap heat;
  const SwitchGraph& net = machine.network();
  heat.links.resize(net.num_links());
  for (LinkId l = 0; l < net.num_links(); ++l) heat.links[l].link = l;
  heat.nodes.resize(machine.num_nodes());
  for (NodeId n = 0; n < machine.num_nodes(); ++n) heat.nodes[n].node = n;

  // Verbatim copies of the record's load totals — the EXPECT_EQ contract.
  for (const trace::Load& l : record.load_totals()) {
    const int ids = l.qpi ? machine.num_nodes() : net.num_links();
    if (l.id < 0 || l.id >= ids || l.dir < 0 || l.dir > 1) continue;
    if (l.qpi) {
      heat.nodes[l.id].bytes[l.dir] = l.bytes;
      heat.max_qpi_bytes = std::max(heat.max_qpi_bytes, l.bytes);
    } else {
      heat.links[l.id].bytes[l.dir] = l.bytes;
      heat.max_link_bytes = std::max(heat.max_link_bytes, l.bytes);
    }
  }
  return heat;
}

std::string render_topo_heatmap(const Machine& machine, const TopoHeatmap& heat,
                                const std::string& caption) {
  const SwitchGraph& net = machine.network();
  const Layout lay = layout_graph(net);
  const double max_all =
      std::max(1.0, std::max(heat.max_link_bytes, heat.max_qpi_bytes));
  const bool host_labels = machine.num_nodes() <= 32;

  std::string svg;
  for (const auto& el : heat.links) {
    const auto& lk = net.link(el.link);
    for (int dir = 0; dir < 2; ++dir) {
      const double b = el.bytes[dir];
      const std::string color =
          b > 0.0 ? seq_color(b / max_all) : std::string(kGridline);
      svg += link_stroke(lay, dir == 0 ? lk.a : lk.b, dir == 0 ? lk.b : lk.a,
                         dir, color, b > 0.0 ? 3.0 : 1.2,
                         dir_tip(net, el.link, dir, b));
    }
  }
  for (NetVertexId v = 0; v < net.num_vertices(); ++v) {
    const auto& vx = net.vertex(v);
    if (vx.kind == VertexKind::Host) {
      const NodeId n = vx.node;
      const double b0 = n >= 0 && n < (int)heat.nodes.size()
                            ? heat.nodes[n].bytes[0] : 0.0;
      const double b1 = n >= 0 && n < (int)heat.nodes.size()
                            ? heat.nodes[n].bytes[1] : 0.0;
      svg += host_glyph(
          lay, v, vertex_label(net, v),
          b0 > 0.0 ? seq_color(b0 / max_all) : std::string(kSurface),
          b1 > 0.0 ? seq_color(b1 / max_all) : std::string(kSurface),
          qpi_tip(n, 0, b0), qpi_tip(n, 1, b1), host_labels);
    } else {
      svg += switch_glyph(lay, v, vertex_label(net, v));
    }
  }

  std::string out = "<figure>\n";
  if (!caption.empty())
    out += "<figcaption class=\"legend\">" + escape_text(caption) +
           "</figcaption>\n";
  out += "<svg width=\"" + std::to_string(lay.width) + "\" height=\"" +
         std::to_string(lay.height) + "\" role=\"img\" aria-label=\"" +
         escape_attr(caption.empty() ? std::string("topology load") : caption) +
         "\">\n" + svg + "</svg>\n</figure>\n";
  out += seq_legend(0.0, max_all, /*as_bytes=*/true);

  // The accessible twin: every loaded resource, exact byte values.
  std::vector<std::vector<std::string>> rows;
  for (const auto& el : heat.links)
    for (int dir = 0; dir < 2; ++dir)
      if (el.bytes[dir] > 0.0)
        rows.push_back({"cable " + std::to_string(el.link),
                        vertex_label(net, dir == 0 ? net.link(el.link).a
                                                   : net.link(el.link).b) +
                            " -> " +
                            vertex_label(net, dir == 0 ? net.link(el.link).b
                                                       : net.link(el.link).a),
                        format_number(el.bytes[dir])});
  for (const auto& nl : heat.nodes)
    for (int dir = 0; dir < 2; ++dir)
      if (nl.bytes[dir] > 0.0)
        rows.push_back({"node " + std::to_string(nl.node) + " QPI",
                        dir == 0 ? "socket 0 -> 1" : "socket 1 -> 0",
                        format_number(nl.bytes[dir])});
  if (rows.empty()) {
    out += "<p class=\"intro\">No network or QPI load was recorded.</p>\n";
  } else {
    out += collapsible("Per-resource byte loads (" +
                           std::to_string(rows.size()) + " directed entries)",
                       data_table({"resource", "direction", "bytes"}, rows));
  }
  return out;
}

std::string render_topo_diff(const Machine& machine, const TopoHeatmap& a,
                             const TopoHeatmap& b, const std::string& caption) {
  const SwitchGraph& net = machine.network();
  const Layout lay = layout_graph(net);

  double max_abs = 0.0;
  auto delta_link = [&](LinkId l, int dir) {
    const double va = l < (LinkId)a.links.size() ? a.links[l].bytes[dir] : 0.0;
    const double vb = l < (LinkId)b.links.size() ? b.links[l].bytes[dir] : 0.0;
    return vb - va;
  };
  auto delta_qpi = [&](NodeId n, int dir) {
    const double va = n < (NodeId)a.nodes.size() ? a.nodes[n].bytes[dir] : 0.0;
    const double vb = n < (NodeId)b.nodes.size() ? b.nodes[n].bytes[dir] : 0.0;
    return vb - va;
  };
  for (LinkId l = 0; l < net.num_links(); ++l)
    for (int dir = 0; dir < 2; ++dir)
      max_abs = std::max(max_abs, std::fabs(delta_link(l, dir)));
  for (NodeId n = 0; n < machine.num_nodes(); ++n)
    for (int dir = 0; dir < 2; ++dir)
      max_abs = std::max(max_abs, std::fabs(delta_qpi(n, dir)));
  if (max_abs == 0.0) max_abs = 1.0;
  const bool host_labels = machine.num_nodes() <= 32;

  std::string svg;
  for (LinkId l = 0; l < net.num_links(); ++l) {
    const auto& lk = net.link(l);
    for (int dir = 0; dir < 2; ++dir) {
      const double d = delta_link(l, dir);
      const std::string color =
          d == 0.0 ? std::string(kGridline) : div_color(d / max_abs);
      svg += link_stroke(
          lay, dir == 0 ? lk.a : lk.b, dir == 0 ? lk.b : lk.a, dir, color,
          d == 0.0 ? 1.2 : 3.0,
          "cable " + std::to_string(l) + " (" +
              vertex_label(net, dir == 0 ? lk.a : lk.b) + " -> " +
              vertex_label(net, dir == 0 ? lk.b : lk.a) +
              ") delta: " + format_number(d) + " B");
    }
  }
  for (NetVertexId v = 0; v < net.num_vertices(); ++v) {
    const auto& vx = net.vertex(v);
    if (vx.kind == VertexKind::Host) {
      const NodeId n = vx.node;
      const double d0 = delta_qpi(n, 0), d1 = delta_qpi(n, 1);
      svg += host_glyph(
          lay, v, vertex_label(net, v),
          d0 == 0.0 ? std::string(kSurface) : div_color(d0 / max_abs),
          d1 == 0.0 ? std::string(kSurface) : div_color(d1 / max_abs),
          "node " + std::to_string(n) +
              " QPI socket 0 -> 1 delta: " + format_number(d0) + " B",
          "node " + std::to_string(n) +
              " QPI socket 1 -> 0 delta: " + format_number(d1) + " B",
          host_labels);
    } else {
      svg += switch_glyph(lay, v, vertex_label(net, v));
    }
  }

  std::string out = "<figure>\n";
  if (!caption.empty())
    out += "<figcaption class=\"legend\">" + escape_text(caption) +
           "</figcaption>\n";
  out += "<svg width=\"" + std::to_string(lay.width) + "\" height=\"" +
         std::to_string(lay.height) + "\" role=\"img\" aria-label=\"" +
         escape_attr(caption.empty() ? std::string("topology load diff")
                                     : caption) +
         "\">\n" + svg + "</svg>\n</figure>\n";
  out += div_legend("load relieved", "newly loaded");

  // Largest movements, both signs, exact values.
  struct Move {
    std::string what, dir;
    double delta;
  };
  std::vector<Move> moves;
  for (LinkId l = 0; l < net.num_links(); ++l)
    for (int dir = 0; dir < 2; ++dir) {
      const double d = delta_link(l, dir);
      if (d != 0.0)
        moves.push_back(
            {"cable " + std::to_string(l),
             vertex_label(net, dir == 0 ? net.link(l).a : net.link(l).b) +
                 " -> " +
                 vertex_label(net, dir == 0 ? net.link(l).b : net.link(l).a),
             d});
    }
  for (NodeId n = 0; n < machine.num_nodes(); ++n)
    for (int dir = 0; dir < 2; ++dir) {
      const double d = delta_qpi(n, dir);
      if (d != 0.0)
        moves.push_back({"node " + std::to_string(n) + " QPI",
                         dir == 0 ? "socket 0 -> 1" : "socket 1 -> 0", d});
    }
  std::stable_sort(moves.begin(), moves.end(), [](const Move& x, const Move& y) {
    return std::fabs(x.delta) > std::fabs(y.delta);
  });
  if (moves.size() > 24) moves.resize(24);
  std::vector<std::vector<std::string>> rows;
  for (const auto& m : moves)
    rows.push_back({m.what, m.dir, format_number(m.delta)});
  if (!rows.empty())
    out += collapsible(
        "Largest load movements (top " + std::to_string(rows.size()) + ")",
        data_table({"resource", "direction", "delta bytes"}, rows));
  return out;
}

}  // namespace tarr::viz
