#include "topology/machine.hpp"

#include <sstream>

#include "common/error.hpp"

namespace tarr::topology {

Machine::Machine(NodeShape shape, SwitchGraph net, Router::HostPolicy policy)
    : shape_(shape), net_(std::move(net)) {
  TARR_REQUIRE(shape_.sockets >= 1 && shape_.cores_per_socket >= 1,
               "Machine: node shape must be non-empty");
  TARR_REQUIRE(net_.num_hosts() >= 1, "Machine: network has no hosts");
  router_ = std::make_unique<Router>(net_, policy);
  sites_.reserve(static_cast<std::size_t>(total_cores()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    for (int local = 0; local < cores_per_node(); ++local) {
      const CoreLocation loc = core_location(shape_, local);
      sites_.push_back(CoreSite{n, loc.socket, loc.complex_in_socket});
    }
  }
}

Machine Machine::gpc(int num_nodes, NodeShape shape) {
  return Machine(shape, build_gpc_network(num_nodes));
}

Machine Machine::single_switch(int num_nodes, NodeShape shape) {
  return Machine(shape, build_single_switch_network(num_nodes));
}

CoreId Machine::core_id(NodeId node, int local) const {
  TARR_REQUIRE(node >= 0 && node < num_nodes(), "core_id: node out of range");
  TARR_REQUIRE(local >= 0 && local < cores_per_node(),
               "core_id: local core out of range");
  return node * cores_per_node() + local;
}

int Machine::network_hops_between_cores(CoreId a, CoreId b) const {
  const NodeId na = node_of_core(a);
  const NodeId nb = node_of_core(b);
  return na == nb ? 0 : router_->hops(na, nb);
}

std::string Machine::describe() const {
  std::ostringstream os;
  os << "Machine: " << num_nodes() << " nodes x (" << shape_.sockets
     << " sockets x " << shape_.cores_per_socket << " cores) = "
     << total_cores() << " cores\n"
     << net_.describe();
  return os.str();
}

}  // namespace tarr::topology
