#include "simmpi/communicator.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace tarr::simmpi {

Communicator::Communicator(const topology::Machine& m,
                           std::vector<CoreId> rank_to_core)
    : machine_(&m), rank_to_core_(std::move(rank_to_core)) {
  TARR_REQUIRE(!rank_to_core_.empty(), "Communicator: empty rank set");
  core_to_rank_.assign(m.total_cores(), kNoRank);
  for (Rank r = 0; r < size(); ++r) {
    const CoreId c = rank_to_core_[r];
    TARR_REQUIRE(c >= 0 && c < m.total_cores(),
                 "Communicator: core out of range");
    TARR_REQUIRE(core_to_rank_[c] == kNoRank,
                 "Communicator: two ranks on one core");
    core_to_rank_[c] = r;
  }
}

NodeId Communicator::node_of(Rank r) const {
  return machine_->node_of_core(core_of(r));
}

SocketId Communicator::socket_of(Rank r) const {
  return machine_->socket_of_core(core_of(r));
}

Rank Communicator::rank_on_core(CoreId c) const {
  TARR_REQUIRE(c >= 0 && c < machine_->total_cores(),
               "rank_on_core: core out of range");
  return core_to_rank_[c];
}

Communicator Communicator::reordered(std::vector<CoreId> new_rank_to_core) const {
  TARR_REQUIRE(new_rank_to_core.size() == rank_to_core_.size(),
               "reordered: size mismatch");
  auto a = rank_to_core_;
  auto b = new_rank_to_core;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  TARR_REQUIRE(a == b, "reordered: core set differs from original");
  return Communicator(*machine_, std::move(new_rank_to_core));
}

std::vector<Rank> Communicator::permutation_to(
    const Communicator& reordered) const {
  TARR_REQUIRE(reordered.size() == size(), "permutation_to: size mismatch");
  std::vector<Rank> perm(size());
  for (Rank old = 0; old < size(); ++old) {
    const Rank nr = reordered.rank_on_core(rank_to_core_[old]);
    TARR_REQUIRE(nr != kNoRank, "permutation_to: core sets differ");
    perm[old] = nr;
  }
  return perm;
}

bool Communicator::node_contiguous() const {
  const int cpn = machine_->cores_per_node();
  if (size() % cpn != 0) return false;
  for (Rank r = 0; r < size(); ++r) {
    if (node_of(r) != node_of(r - r % cpn)) return false;
  }
  // Distinct node per block.
  std::vector<NodeId> firsts;
  for (Rank r = 0; r < size(); r += cpn) firsts.push_back(node_of(r));
  std::sort(firsts.begin(), firsts.end());
  return std::adjacent_find(firsts.begin(), firsts.end()) == firsts.end();
}

std::vector<std::vector<Rank>> Communicator::ranks_by_node() const {
  std::map<NodeId, std::vector<Rank>> groups;
  for (Rank r = 0; r < size(); ++r) groups[node_of(r)].push_back(r);
  std::vector<std::vector<Rank>> out;
  out.reserve(groups.size());
  for (auto& [node, ranks] : groups) out.push_back(std::move(ranks));
  return out;
}

}  // namespace tarr::simmpi
