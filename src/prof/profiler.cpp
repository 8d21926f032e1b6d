#include "prof/profiler.hpp"

#include "common/error.hpp"

namespace tarr::prof {

namespace detail {
namespace {
MemSnapshotFn g_mem_source = nullptr;
}  // namespace

void set_mem_source(MemSnapshotFn fn) { g_mem_source = fn; }
MemSnapshotFn mem_source() { return g_mem_source; }
}  // namespace detail

namespace {

MemCounters mem_now() {
  detail::MemSnapshotFn fn = detail::mem_source();
  return fn != nullptr ? fn() : MemCounters{};
}

}  // namespace

Profiler::Profiler() {
  Node root;
  root.name = "(root)";
  root.parent = -1;
  root.calls = 1;
  nodes_.push_back(std::move(root));
}

void Profiler::enter(std::string_view name) {
  const int parent = stack_.empty() ? 0 : stack_.back().node;
  int idx = -1;
  auto it = nodes_[parent].by_name.find(name);
  if (it != nodes_[parent].by_name.end()) {
    idx = it->second;
  } else {
    idx = static_cast<int>(nodes_.size());
    Node n;
    n.name = name;
    n.parent = parent;
    nodes_.push_back(std::move(n));
    nodes_[parent].children.push_back(idx);
    nodes_[parent].by_name.emplace(std::string(name), idx);
  }
  nodes_[idx].calls += 1;
  Open open;
  open.node = idx;
  open.t0 = std::chrono::steady_clock::now();
  open.mem0 = mem_now();
  stack_.push_back(open);
}

void Profiler::exit_scope() {
  TARR_REQUIRE(!stack_.empty(), "Profiler::exit_scope with no open scope");
  const Open open = stack_.back();
  stack_.pop_back();
  Node& n = nodes_[open.node];
  const auto t1 = std::chrono::steady_clock::now();
  n.wall_total += std::chrono::duration<double>(t1 - open.t0).count();
  const MemCounters m1 = mem_now();
  n.mem_bytes_total += static_cast<long long>(m1.bytes - open.mem0.bytes);
  n.mem_allocs_total += static_cast<long long>(m1.allocs - open.mem0.allocs);
}

void Profiler::count(std::string_view name, double delta) {
  Node& n = nodes_[stack_.empty() ? 0 : stack_.back().node];
  auto it = n.counts.find(name);
  if (it == n.counts.end()) it = n.counts.emplace(std::string(name), 0.0).first;
  it->second += delta;
  n.work_self += delta;
}

Profile Profiler::snapshot() const {
  TARR_REQUIRE(stack_.empty(), "Profiler::snapshot with open scopes");
  Profile p;
  p.mem_tracked = detail::mem_source() != nullptr;
  p.entries.reserve(nodes_.size());

  // Preorder emission; children are visited in first-entry order.  Totals
  // are accumulated bottom-up on the way back so self/total arithmetic is
  // exact by construction.
  struct Emit {
    const Profiler* self;
    Profile* out;
    int emit(int node, int parent_entry, int depth,
             const std::string& parent_path) const {
      const Node& n = self->nodes_[node];
      const int idx = static_cast<int>(out->entries.size());
      out->entries.emplace_back();
      {
        ProfileEntry& e = out->entries.back();
        e.name = n.name;
        e.path = node == 0 ? std::string()
                 : parent_path.empty() ? n.name
                                       : parent_path + "/" + n.name;
        e.parent = parent_entry;
        e.depth = depth;
        e.calls = n.calls;
        e.work_self = n.work_self;
        for (const auto& [name, value] : n.counts)
          e.counters[name] = ProfileMetric{value, value};
      }
      double wall_children = 0.0;
      long long bytes_children = 0;
      long long allocs_children = 0;
      const std::string path = out->entries[idx].path;
      for (int child : n.children) {
        const int cidx = emit(child, idx, depth + 1, path);
        const ProfileEntry& c = out->entries[cidx];
        wall_children += c.wall_total;
        bytes_children += c.mem_bytes_total;
        allocs_children += c.mem_allocs_total;
        out->entries[idx].work_total += c.work_total;
        for (const auto& [name, metric] : c.counters) {
          ProfileMetric& m = out->entries[idx].counters[name];
          m.total += metric.total;
        }
      }
      ProfileEntry& e = out->entries[idx];
      e.work_total += e.work_self;
      // The root has no measured span: its inclusive values are exactly its
      // children's.  Measured nodes keep their inclusive measurement and
      // derive self as the remainder, so total == self + sum(children).
      const double wall_incl = node == 0 ? wall_children : n.wall_total;
      const long long bytes_incl = node == 0 ? bytes_children : n.mem_bytes_total;
      const long long allocs_incl =
          node == 0 ? allocs_children : n.mem_allocs_total;
      e.wall_total = wall_incl;
      e.wall_self = wall_incl - wall_children;
      e.mem_bytes_total = bytes_incl;
      e.mem_bytes_self = bytes_incl - bytes_children;
      e.mem_allocs_total = allocs_incl;
      e.mem_allocs_self = allocs_incl - allocs_children;
      return idx;
    }
  };
  Emit{this, &p}.emit(0, -1, 0, std::string());
  return p;
}

double Profile::counter_total(const std::string& name) const {
  if (entries.empty()) return 0.0;
  const auto it = entries.front().counters.find(name);
  return it == entries.front().counters.end() ? 0.0 : it->second.total;
}

const ProfileEntry* Profile::find(const std::string& path) const {
  for (const ProfileEntry& e : entries)
    if (e.path == path) return &e;
  return nullptr;
}

}  // namespace tarr::prof
