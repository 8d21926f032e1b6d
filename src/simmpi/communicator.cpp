#include "simmpi/communicator.hpp"

#include <algorithm>

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
  const int cpn = m.cores_per_node();
  if (size() % cpn != 0) return;
  for (Rank r = 0; r < size(); ++r)
    if (node_of(r) != node_of(r - r % cpn)) return;
  // Distinct node per block.
  std::vector<NodeId> firsts;
  for (Rank r = 0; r < size(); r += cpn) firsts.push_back(node_of(r));
  std::sort(firsts.begin(), firsts.end());
  node_contiguous_ =
      std::adjacent_find(firsts.begin(), firsts.end()) == firsts.end();
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

std::vector<Rank> Communicator::oldrank_of(
    const Communicator& reordered) const {
  TARR_REQUIRE(reordered.size() == size(), "oldrank_of: size mismatch");
  std::vector<Rank> oldrank(size());
  for (Rank nr = 0; nr < size(); ++nr) {
    oldrank[nr] = rank_on_core(reordered.core_of(nr));
    TARR_REQUIRE(oldrank[nr] != kNoRank, "oldrank_of: core sets differ");
  }
  return oldrank;
}

}  // namespace tarr::simmpi
