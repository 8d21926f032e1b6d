#include "prof/export.hpp"

#include "bench/csv.hpp"
#include "common/serialize.hpp"

namespace tarr::prof {

namespace {

std::string display_path(const ProfileEntry& e) {
  return e.parent < 0 ? "(root)" : e.path;
}

}  // namespace

ProfileMetric metric_of(const ProfileEntry& e, const std::string& metric) {
  if (metric == "work") return ProfileMetric{e.work_self, e.work_total};
  if (metric == "calls") {
    const double c = static_cast<double>(e.calls);
    return ProfileMetric{c, c};
  }
  if (metric == "wall_seconds") return ProfileMetric{e.wall_self, e.wall_total};
  if (metric == "mem.bytes")
    return ProfileMetric{static_cast<double>(e.mem_bytes_self),
                         static_cast<double>(e.mem_bytes_total)};
  if (metric == "mem.allocs")
    return ProfileMetric{static_cast<double>(e.mem_allocs_self),
                         static_cast<double>(e.mem_allocs_total)};
  const auto it = e.counters.find(metric);
  return it == e.counters.end() ? ProfileMetric{} : it->second;
}

std::string flat_csv(const Profile& p, const ExportOptions& opts) {
  bench::CsvWriter w;
  w.set_header({"path", "depth", "calls", "metric", "self", "total"});
  for (const ProfileEntry& e : p.entries) {
    const std::string path = display_path(e);
    const std::string depth = format_number(static_cast<double>(e.depth));
    const std::string calls = format_number(static_cast<double>(e.calls));
    auto row = [&](const std::string& metric, const ProfileMetric& m) {
      w.add_row({path, depth, calls, metric, format_number(m.self),
                 format_number(m.total)});
    };
    row("work", ProfileMetric{e.work_self, e.work_total});
    for (const auto& [name, m] : e.counters) row(name, m);
    if (p.mem_tracked) {
      row("mem.bytes", metric_of(e, "mem.bytes"));
      row("mem.allocs", metric_of(e, "mem.allocs"));
    }
    if (opts.include_wall)
      row("wall_seconds", ProfileMetric{e.wall_self, e.wall_total});
  }
  return w.to_string();
}

std::string collapsed_stacks(const Profile& p, const std::string& metric) {
  std::string out;
  for (const ProfileEntry& e : p.entries) {
    const double self = metric_of(e, metric).self;
    if (self == 0.0) continue;
    // Stack frames separated by ';', weight after the last frame.
    std::string stack = "(root)";
    if (e.parent >= 0) {
      std::string frames = e.path;
      for (char& c : frames)
        if (c == '/') c = ';';
      stack += ";" + frames;
    }
    out += stack + " " + format_number(self) + "\n";
  }
  return out;
}

std::string speedscope_json(const Profile& p, const std::string& metric,
                            const std::string& name) {
  // Evented speedscope profile: frame table = one frame per scope entry,
  // events = O/C pairs in preorder, children laid out consecutively inside
  // the parent span with the self remainder trailing.
  std::string frames;
  for (std::size_t i = 0; i < p.entries.size(); ++i) {
    if (i != 0) frames += ",";
    frames += "{\"name\": \"" + json_escape(display_path(p.entries[i])) + "\"}";
  }

  std::string events;
  double end_value = 0.0;
  // Recursive layout over the entry tree (children of entry i are the
  // entries whose parent == i, preorder-contiguous).
  std::vector<std::vector<int>> children(p.entries.size());
  for (std::size_t i = 1; i < p.entries.size(); ++i)
    children[static_cast<std::size_t>(p.entries[i].parent)].push_back(
        static_cast<int>(i));

  struct Layout {
    const Profile* p;
    const std::string* metric;
    const std::vector<std::vector<int>>* children;
    std::string* events;
    void emit(int idx, double at, double* end) const {
      const ProfileEntry& e = p->entries[static_cast<std::size_t>(idx)];
      const double total = metric_of(e, *metric).total;
      *events += std::string(events->empty() ? "" : ",") + "{\"type\": \"O\"" +
                 ", \"frame\": " + format_number(idx) +
                 ", \"at\": " + format_number(at) + "}";
      double cursor = at;
      for (int c : (*children)[static_cast<std::size_t>(idx)]) {
        double child_end = cursor;
        emit(c, cursor, &child_end);
        cursor = child_end;
      }
      const double close_at = at + total > cursor ? at + total : cursor;
      *events += ",{\"type\": \"C\", \"frame\": " + format_number(idx) +
                 ", \"at\": " + format_number(close_at) + "}";
      *end = close_at;
    }
  };
  Layout{&p, &metric, &children, &events}.emit(0, 0.0, &end_value);

  const std::string unit = metric == "wall_seconds" ? "seconds"
                           : metric == "mem.bytes"  ? "bytes"
                                                    : "none";
  std::string out;
  out += "{\n";
  out += "  \"$schema\": \"https://www.speedscope.app/file-format-schema.json\",\n";
  out += "  \"name\": \"" + json_escape(name) + "\",\n";
  out += "  \"activeProfileIndex\": 0,\n";
  out += "  \"exporter\": \"tarr::prof\",\n";
  out += "  \"shared\": {\"frames\": [" + frames + "]},\n";
  out += "  \"profiles\": [{\n";
  out += "    \"type\": \"evented\",\n";
  out += "    \"name\": \"" + json_escape(metric) + "\",\n";
  out += "    \"unit\": \"" + unit + "\",\n";
  out += "    \"startValue\": 0,\n";
  out += "    \"endValue\": " + format_number(end_value) + ",\n";
  out += "    \"events\": [" + events + "]\n";
  out += "  }]\n";
  out += "}\n";
  return out;
}

}  // namespace tarr::prof
