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
    : graph_(&g), num_hosts_(g.num_hosts()) {
  prof::ProfScope pscope("router-build");
  components_ = host_components(g);
  if (policy == HostPolicy::RequireAll && components_.components.size() > 1)
    throw PartitionedError(components_);
  component_of_.assign(num_hosts_, 0);
  for (std::size_t c = 0; c < components_.components.size(); ++c)
    for (NodeId n : components_.components[c])
      component_of_[n] = static_cast<int>(c);

  const int V = g.num_vertices();
  const int H = num_hosts_;
  offset_.assign(static_cast<std::size_t>(H) * H + 1, 0);

  constexpr int kUnreached = std::numeric_limits<int>::max();
  std::vector<int> level(V);
  std::deque<NetVertexId> queue;

  // First pass per destination: BFS levels; then for every source walk the
  // level gradient picking the hashed candidate.  Two passes over (src,dst)
  // fill offsets then links.
  std::vector<std::vector<LinkId>> tmp(static_cast<std::size_t>(H) * H);

  for (NodeId dst = 0; dst < H; ++dst) {
    std::fill(level.begin(), level.end(), kUnreached);
    const NetVertexId target = g.host_vertex(dst);
    level[target] = 0;
    queue.clear();
    queue.push_back(target);
    while (!queue.empty()) {
      const NetVertexId u = queue.front();
      queue.pop_front();
      for (LinkId l : g.incident(u)) {
        const NetVertexId w = g.other_end(l, u);
        if (level[w] == kUnreached) {
          level[w] = level[u] + 1;
          queue.push_back(w);
        }
      }
    }
    for (NodeId src = 0; src < H; ++src) {
      if (src == dst) continue;
      if (component_of_[src] != component_of_[dst]) continue;  // unroutable
      NetVertexId at = g.host_vertex(src);
      TARR_REQUIRE(level[at] != kUnreached,
                   "Router: component map disagrees with BFS");
      auto& path = tmp[static_cast<std::size_t>(src) * H + dst];
      path.reserve(level[at]);
      while (at != target) {
        // Collect the downhill candidates, then pick deterministically.
        int candidates = 0;
        for (LinkId l : g.incident(at)) {
          if (level[g.other_end(l, at)] == level[at] - 1) ++candidates;
        }
        TARR_REQUIRE(candidates > 0, "Router: BFS gradient broken");
        int pick = static_cast<int>(route_hash(dst, at) %
                                    static_cast<std::uint32_t>(candidates));
        LinkId chosen = -1;
        for (LinkId l : g.incident(at)) {
          if (level[g.other_end(l, at)] == level[at] - 1 && pick-- == 0) {
            chosen = l;
            break;
          }
        }
        path.push_back(chosen);
        at = g.other_end(chosen, at);
      }
    }
  }

  std::size_t total = 0;
  for (const auto& p : tmp) total += p.size();
  links_.reserve(total);
  for (std::size_t i = 0; i < tmp.size(); ++i) {
    offset_[i] = static_cast<int>(links_.size());
    links_.insert(links_.end(), tmp[i].begin(), tmp[i].end());
  }
  offset_.back() = static_cast<int>(links_.size());
}

std::span<const LinkId> Router::path(NodeId src, NodeId dst) const {
  TARR_REQUIRE(src >= 0 && src < num_hosts_ && dst >= 0 && dst < num_hosts_,
               "Router::path: node out of range");
  if (src != dst && component_of_[src] != component_of_[dst])
    throw PartitionedError(components_);
  const std::size_t idx = static_cast<std::size_t>(src) * num_hosts_ + dst;
  return std::span<const LinkId>(links_.data() + offset_[idx],
                                 links_.data() + offset_[idx + 1]);
}

int Router::hops(NodeId src, NodeId dst) const {
  return static_cast<int>(path(src, dst).size());
}

bool Router::reachable(NodeId src, NodeId dst) const {
  TARR_REQUIRE(src >= 0 && src < num_hosts_ && dst >= 0 && dst < num_hosts_,
               "Router::reachable: node out of range");
  return src == dst || component_of_[src] == component_of_[dst];
}

}  // namespace tarr::topology
