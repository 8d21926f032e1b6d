#include "simmpi/layout.hpp"

#include "common/error.hpp"

namespace tarr::simmpi {

std::string to_string(const LayoutSpec& spec) {
  std::string s = spec.node == NodeOrder::Block ? "block" : "cyclic";
  s += spec.socket == SocketOrder::Bunch ? "-bunch" : "-scatter";
  return s;
}

LayoutSpec parse_layout_spec(const std::string& s) {
  // Library names first.
  for (const LayoutSpec& spec : all_layouts()) {
    if (to_string(spec) == s) return spec;
  }
  // SLURM --distribution names: <node>:<socket>.
  const std::size_t colon = s.find(':');
  if (colon == std::string::npos)
    throw Error("parse_layout_spec: unknown layout: " + s);
  const std::string node = s.substr(0, colon);
  const std::string socket = s.substr(colon + 1);
  LayoutSpec spec;
  if (node == "block") {
    spec.node = NodeOrder::Block;
  } else if (node == "cyclic") {
    spec.node = NodeOrder::Cyclic;
  } else {
    throw Error("parse_layout_spec: unknown node policy: " + node);
  }
  if (socket == "block") {
    spec.socket = SocketOrder::Bunch;
  } else if (socket == "cyclic") {
    spec.socket = SocketOrder::Scatter;
  } else {
    throw Error("parse_layout_spec: unknown socket policy: " + socket);
  }
  return spec;
}

std::vector<LayoutSpec> all_layouts() {
  return {
      LayoutSpec{NodeOrder::Block, SocketOrder::Bunch},
      LayoutSpec{NodeOrder::Block, SocketOrder::Scatter},
      LayoutSpec{NodeOrder::Cyclic, SocketOrder::Bunch},
      LayoutSpec{NodeOrder::Cyclic, SocketOrder::Scatter},
  };
}

std::vector<CoreId> make_layout(const topology::Machine& m, int p,
                                const LayoutSpec& spec) {
  if (p < 1) throw Error("make_layout: need at least one rank");
  if (p > m.total_cores()) throw Error("make_layout: more ranks than cores");
  const int cpn = m.cores_per_node();
  const int nodes_used = (p + cpn - 1) / cpn;

  // socket_slot[k] = node-local core used by the k-th rank placed on a node.
  std::vector<int> socket_slot(cpn);
  const auto& shape = m.shape();
  for (int k = 0; k < cpn; ++k) {
    if (spec.socket == SocketOrder::Bunch) {
      socket_slot[k] = k;  // cores are numbered socket-major already
    } else {
      const int socket = k % shape.sockets;
      const int within = k / shape.sockets;
      socket_slot[k] = socket * shape.cores_per_socket + within;
    }
  }

  std::vector<CoreId> layout(p);
  for (Rank r = 0; r < p; ++r) {
    NodeId node;
    int k;  // how many ranks were placed on `node` before this one
    if (spec.node == NodeOrder::Block) {
      node = r / cpn;
      k = r % cpn;
    } else {
      node = r % nodes_used;
      k = r / nodes_used;
    }
    TARR_REQUIRE(k < cpn, "make_layout: node overfilled (cyclic remainder)");
    layout[r] = m.core_id(node, socket_slot[k]);
  }
  return layout;
}

}  // namespace tarr::simmpi
