#include "topology/routing.hpp"

#include <cstdint>
#include <deque>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

namespace {

/// Deterministic spreading hash used to pick among equal-length candidates.
/// Depends on (dst, current vertex) only — destination-based forwarding.
std::uint32_t route_hash(NodeId dst, NetVertexId at) {
  std::uint32_t h = static_cast<std::uint32_t>(dst) * 0x9e3779b9u;
  h ^= static_cast<std::uint32_t>(at) * 0x85ebca6bu;
  h ^= h >> 13;
  h *= 0xc2b2ae35u;
  h ^= h >> 16;
  return h;
}

}  // namespace

std::string Partitioned::describe() const {
  std::ostringstream os;
  os << "hosts split into " << components.size() << " component(s):";
  constexpr std::size_t kMaxComponents = 8;
  constexpr std::size_t kMaxMembers = 8;
  for (std::size_t c = 0; c < components.size() && c < kMaxComponents; ++c) {
    os << " [";
    for (std::size_t i = 0; i < components[c].size(); ++i) {
      if (i == kMaxMembers) {
        os << " ...+" << components[c].size() - kMaxMembers;
        break;
      }
      if (i > 0) os << ' ';
      os << components[c][i];
    }
    os << ']';
  }
  if (components.size() > kMaxComponents)
    os << " ...+" << components.size() - kMaxComponents << " more";
  return os.str();
}

PartitionedError::PartitionedError(Partitioned info)
    : Error("network partitioned: " + info.describe()),
      info_(std::move(info)) {}

Partitioned host_components(const SwitchGraph& g) {
  const int V = g.num_vertices();
  std::vector<int> comp(V, -1);
  int num_comps = 0;
  std::deque<NetVertexId> queue;
  // Flood from hosts in node order so components come out ordered by their
  // smallest member.
  for (NodeId n = 0; n < g.num_hosts(); ++n) {
    const NetVertexId start = g.host_vertex(n);
    if (comp[start] != -1) continue;
    comp[start] = num_comps++;
    queue.clear();
    queue.push_back(start);
    while (!queue.empty()) {
      const NetVertexId u = queue.front();
      queue.pop_front();
      for (LinkId l : g.incident(u)) {
        const NetVertexId w = g.other_end(l, u);
        if (comp[w] == -1) {
          comp[w] = comp[u];
          queue.push_back(w);
        }
      }
    }
  }
  Partitioned out;
  out.components.resize(num_comps);
  for (NodeId n = 0; n < g.num_hosts(); ++n)
    out.components[comp[g.host_vertex(n)]].push_back(n);
  return out;
}

Router::Router(const SwitchGraph& g, HostPolicy policy)
    : num_vertices_(g.num_vertices()) {
  prof::ProfScope pscope("router-build");
  components_ = host_components(g);
  if (policy == HostPolicy::RequireAll && components_.components.size() > 1)
    throw PartitionedError(components_);
  const int H = g.num_hosts();
  component_of_.assign(H, 0);
  for (std::size_t c = 0; c < components_.components.size(); ++c)
    for (NodeId n : components_.components[c])
      component_of_[n] = static_cast<int>(c);
  host_vertex_.resize(H);
  for (NodeId n = 0; n < H; ++n) host_vertex_[n] = g.host_vertex(n);
  enters_.resize(static_cast<std::size_t>(g.num_links()) * 2);
  for (LinkId l = 0; l < g.num_links(); ++l) {
    enters_[static_cast<std::size_t>(l) * 2] = g.link(l).b;
    enters_[static_cast<std::size_t>(l) * 2 + 1] = g.link(l).a;
  }

  const int V = num_vertices_;
  next_.assign(static_cast<std::size_t>(H) * V, -1);
  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> level(V);
  std::vector<NetVertexId> queue;  // BFS visit order; queue[0] is the target
  queue.reserve(V);

  // Per destination: BFS levels, then at every vertex that reaches the
  // destination the hashed pick among its downhill links.
  for (NodeId dst = 0; dst < H; ++dst) {
    std::fill(level.begin(), level.end(), kUnreached);
    const NetVertexId target = host_vertex_[dst];
    level[target] = 0;
    queue.assign(1, target);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NetVertexId u = queue[head];
      for (LinkId l : g.incident(u)) {
        const NetVertexId w = g.other_end(l, u);
        if (level[w] == kUnreached) {
          level[w] = level[u] + 1;
          queue.push_back(w);
        }
      }
    }
    int* next = next_.data() + static_cast<std::size_t>(dst) * V;
    for (std::size_t i = 1; i < queue.size(); ++i) {
      const NetVertexId at = queue[i];
      // Count the downhill candidates, then pick deterministically.
      int candidates = 0;
      for (LinkId l : g.incident(at)) {
        if (level[g.other_end(l, at)] == level[at] - 1) ++candidates;
      }
      TARR_REQUIRE(candidates > 0, "Router: BFS gradient broken");
      int pick = static_cast<int>(route_hash(dst, at) %
                                  static_cast<std::uint32_t>(candidates));
      for (LinkId l : g.incident(at)) {
        if (level[g.other_end(l, at)] == level[at] - 1 && pick-- == 0) {
          next[at] = 2 * l + (g.link(l).a == at ? 0 : 1);
          break;
        }
      }
    }
    for (NodeId src : components_.components[component_of_[dst]])
      TARR_REQUIRE(src == dst || next[host_vertex_[src]] != -1,
                   "Router: component map disagrees with BFS");
  }
}

bool Router::reachable(NodeId src, NodeId dst) const {
  const auto hosts = static_cast<NodeId>(host_vertex_.size());
  TARR_REQUIRE(src >= 0 && src < hosts && dst >= 0 && dst < hosts,
               "Router: node out of range");
  return src == dst || component_of_[src] == component_of_[dst];
}

}  // namespace tarr::topology
