#pragma once

#include <string>
#include <vector>

#include "topology/intranode.hpp"
#include "topology/machine.hpp"

/// \file distance.hpp
/// Physical distance extraction — the hwloc + InfiniBand-tools substitute.
///
/// The paper extracts core-to-core distances once (intra-node via hwloc,
/// inter-node via IB tools), saves them, and feeds only this matrix to the
/// mapping heuristics.  This module reproduces that contract: a symmetric
/// core x core matrix where intra-socket < cross-socket < any network
/// distance, and network distance grows with switch hops.
///
/// On a degraded machine (fault::DegradedTopology, AllowUnreachable router)
/// the extraction still succeeds: pairs of nodes with no surviving route are
/// priced at +infinity, so every mapping heuristic transparently consumes
/// the degraded topology and steers traffic away from the cut.

namespace tarr::topology {

/// The one distance scale: weights that combine intra-node locality levels
/// with network hop counts.
inline constexpr float kSameCore = 0.0f;
/// Same socket, same L3 complex (the only intra-socket level on the
/// paper's flat-socket nodes).
inline constexpr float kSameSocket = 1.0f;
/// Same socket, different L3 complex (deep NodeShapes only).
inline constexpr float kCrossComplex = 1.5f;
inline constexpr float kCrossSocket = 2.0f;
/// Inter-node distance = kInterNodeBase + kPerHop * (switch hops).
inline constexpr float kInterNodeBase = 10.0f;
inline constexpr float kPerHop = 5.0f;

// Every inter-node distance exceeds every intra-node one, the property the
// heuristics rely on: cross-socket is the largest intra-node weight, it is
// below the inter-node base, and hops only add.
static_assert(kSameCore <= kSameSocket && kSameSocket <= kCrossComplex &&
                  kCrossComplex <= kCrossSocket &&
                  kCrossSocket < kInterNodeBase && kPerHop >= 0.0f,
              "inter-node distances must exceed intra-node ones");

/// Weight of one intra-node locality level (the scale shared by
/// extract_distances and tarr::probe's inferred matrices).
float intra_level_weight(IntraLevel level);

/// Symmetric core-to-core distances, stored in the two levels the paper
/// extracts them in: an N x N node matrix (network distances) and one
/// c x c intra-node template (hwloc distances) shared by every node.  Cores
/// are numbered node-major, core = node * c + local; at(a, b) reads the
/// template when a and b share a node and the node matrix otherwise, so the
/// dense p x p expansion is never stored.
///
/// A one-level matrix, DistanceMatrix(n, fill) plus set(), is the same class
/// with a single node: every entry, the diagonal included, lives in its
/// n x n template.  The node and intra levels themselves are one-level
/// matrices (node_level(), intra_level()).
class DistanceMatrix {
 public:
  /// One-level n x n matrix with every entry `fill`.
  explicit DistanceMatrix(int n, float fill = 0.0f);

  /// Two-level matrix of nodes.size() nodes with intra.size() cores each:
  /// entries between different nodes come from `nodes`, entries within a
  /// node from `intra`.  Both must be one-level; the diagonal of `nodes` is
  /// kept (node_level() returns it) but at() never reads it.
  DistanceMatrix(const DistanceMatrix& nodes, const DistanceMatrix& intra);

  /// Number of cores (N * c).
  int size() const { return static_cast<int>(node_of_.size()); }
  int num_nodes() const { return nodes_; }
  int cores_per_node() const { return cpn_; }

  /// One core's distances to every core: from(ref)[s] == at(ref, s).  The
  /// reference's row of the node matrix and its row of the template are
  /// looked up once, so a scan of many cores against one reference pays a
  /// node-index load and compare per core.
  struct Row {
    const NodeId* node_of;
    NodeId node;         // the reference's node
    CoreId first;        // that node's first core
    const float* nodes;  // that node's row of the node matrix
    const float* intra;  // the reference's row of the template
    float operator[](CoreId s) const {
      const NodeId n = node_of[s];
      return n == node ? intra[s - first] : nodes[n];
    }
  };
  Row from(CoreId ref) const {
    const NodeId n = node_of_[ref];
    return Row{node_of_.data(), n, n * cpn_, node_row(n),
               intra_row(ref - n * cpn_)};
  }

  float at(CoreId a, CoreId b) const { return from(a)[b]; }

  /// Set entries (a, b) and (b, a) of a one-level matrix.
  void set(CoreId a, CoreId b, float v);

  /// The node matrix and the intra-node template as one-level matrices.
  DistanceMatrix node_level() const;
  DistanceMatrix intra_level() const;

  /// Persist the matrix to a binary file.  The paper assumes distances are
  /// "extracted once, and saved for future references"; this is the saving
  /// half.  Format v2: magic, version, nodes, cores per node (uint32 each),
  /// then the node matrix and the template (row-major float32).  Throws
  /// tarr::Error on I/O failure.
  void save(const std::string& path) const;

  /// Load a matrix written by save(), or a v1 file (magic, version, n, then
  /// the dense n x n matrix) as a one-level matrix.  The header is checked
  /// against the file size before anything is allocated; throws tarr::Error
  /// on any mismatch or I/O failure.
  static DistanceMatrix load(const std::string& path);

 private:
  /// `cells` holds the node matrix, then the template.
  DistanceMatrix(int nodes, int cpn, std::vector<float> cells);

  const float* node_row(NodeId n) const {
    return cells_.data() + static_cast<std::size_t>(n) * nodes_;
  }
  /// The template follows the node matrix: it starts at "row N".
  const float* intra_row(int local) const {
    return node_row(nodes_) + static_cast<std::size_t>(local) * cpn_;
  }

  int nodes_;
  int cpn_;
  std::vector<float> cells_;     // node matrix, then template (row-major)
  std::vector<NodeId> node_of_;  // core -> node
};

/// Extract the distance matrix of `m`: the composition of
/// extract_node_distances and extract_intranode_distances (the operation
/// the paper times in Fig 7a; it is intended to run once and be cached by
/// the caller).
DistanceMatrix extract_distances(const Machine& m);

/// Node-to-node distance matrix (one-level, one "core" per node):
/// kInterNodeBase + kPerHop * hops, 0 on the diagonal, +infinity between
/// nodes with no surviving route.
DistanceMatrix extract_node_distances(const Machine& m);

/// Intra-node core distance matrix for one node of `m` (one-level, c x c):
/// the template every two-level matrix shares, built here only.
DistanceMatrix extract_intranode_distances(const Machine& m);

}  // namespace tarr::topology
