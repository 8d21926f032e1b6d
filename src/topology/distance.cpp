#include "topology/distance.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <fstream>
#include <limits>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::topology {

namespace {

/// Magic header of the on-disk distance-matrix format.
constexpr std::uint32_t kDistanceFileMagic = 0x74615244u;  // "DRat"
/// v1: magic, version, n, then the dense n x n matrix.
/// v2: magic, version, nodes, cores per node, node matrix, template.
constexpr std::uint32_t kDistanceFileVersion = 2;

}  // namespace

float intra_level_weight(IntraLevel level) {
  switch (level) {
    case IntraLevel::SameCore:
      return kSameCore;
    case IntraLevel::SameComplex:
      return kSameSocket;
    case IntraLevel::CrossComplex:
      return kCrossComplex;
    case IntraLevel::CrossSocket:
      return kCrossSocket;
  }
  return kCrossSocket;
}

DistanceMatrix::DistanceMatrix(int nodes, int cpn, std::vector<float> cells)
    : nodes_(nodes), cpn_(cpn), cells_(std::move(cells)) {
  TARR_REQUIRE(nodes >= 1 && cpn >= 1 && nodes <= INT_MAX / cpn,
               "DistanceMatrix: size must be >= 1 and fit an int");
  node_of_.reserve(static_cast<std::size_t>(nodes) * cpn);
  for (NodeId n = 0; n < nodes; ++n) node_of_.insert(node_of_.end(), cpn, n);
}

DistanceMatrix::DistanceMatrix(int n, float fill)
    : DistanceMatrix(1, n,
                     std::vector<float>(
                         n >= 1 ? 1 + static_cast<std::size_t>(n) * n : 1,
                         fill)) {}

DistanceMatrix::DistanceMatrix(const DistanceMatrix& nodes,
                               const DistanceMatrix& intra)
    : DistanceMatrix(nodes.size(), intra.size(), nodes.cells_) {
  TARR_REQUIRE(nodes.nodes_ == 1 && intra.nodes_ == 1,
               "DistanceMatrix: levels must be one-level matrices");
  cells_.erase(cells_.begin());  // the one-level node cell
  cells_.insert(cells_.end(), intra.cells_.begin() + 1, intra.cells_.end());
}

void DistanceMatrix::set(CoreId a, CoreId b, float v) {
  TARR_REQUIRE(nodes_ == 1, "DistanceMatrix::set: not a one-level matrix");
  float* t = cells_.data() + 1;  // the template, after the one node cell
  t[static_cast<std::size_t>(a) * cpn_ + b] = v;
  t[static_cast<std::size_t>(b) * cpn_ + a] = v;
}

DistanceMatrix DistanceMatrix::node_level() const {
  DistanceMatrix d(nodes_);
  std::copy(node_row(0), intra_row(0), d.cells_.begin() + 1);
  return d;
}

DistanceMatrix DistanceMatrix::intra_level() const {
  DistanceMatrix d(cpn_);
  std::copy(intra_row(0), cells_.data() + cells_.size(), d.cells_.begin() + 1);
  return d;
}

void DistanceMatrix::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  TARR_REQUIRE(out.good(), "DistanceMatrix::save: cannot open " + path);
  const std::uint32_t header[4] = {kDistanceFileMagic, kDistanceFileVersion,
                                   static_cast<std::uint32_t>(nodes_),
                                   static_cast<std::uint32_t>(cpn_)};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(cells_.data()),
            static_cast<std::streamsize>(cells_.size() * sizeof(float)));
  TARR_REQUIRE(out.good(), "DistanceMatrix::save: write failed for " + path);
}

DistanceMatrix DistanceMatrix::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff file_size = in.tellg();
  TARR_REQUIRE(in.good() && file_size >= 0,
               "DistanceMatrix::load: cannot open " + path);
  in.seekg(0);
  std::uint32_t header[4] = {};
  in.read(reinterpret_cast<char*>(header), 3 * sizeof(std::uint32_t));
  TARR_REQUIRE(in.good() && header[0] == kDistanceFileMagic,
               "DistanceMatrix::load: not a distance-matrix file: " + path);
  const bool v1 = header[1] == 1;
  TARR_REQUIRE(v1 || header[1] == kDistanceFileVersion,
               "DistanceMatrix::load: unsupported version in " + path);
  if (!v1) in.read(reinterpret_cast<char*>(&header[3]), sizeof(header[3]));
  // A v1 file is one node of n cores; v2 names both levels.
  const std::uint64_t nodes = v1 ? 1 : header[2];
  const std::uint64_t cpn = v1 ? header[2] : header[3];
  TARR_REQUIRE(in.good() && nodes >= 1 && cpn >= 1 && nodes * cpn <= INT_MAX,
               "DistanceMatrix::load: corrupt header in " + path);
  // The cells must fill the rest of the file exactly; nothing is allocated
  // before that holds.  nodes * cpn <= INT_MAX bounds nodes^2 + cpn^2 by
  // INT_MAX^2 + 1, so the byte count cannot overflow.  A v1 file stores no
  // node matrix: its one node cell is not in the file.
  const std::uint64_t stored = (v1 ? 0 : nodes * nodes) + cpn * cpn;
  const std::uint64_t header_bytes = (v1 ? 3 : 4) * sizeof(std::uint32_t);
  TARR_REQUIRE(stored * sizeof(float) ==
                   static_cast<std::uint64_t>(file_size) - header_bytes,
               "DistanceMatrix::load: size does not match header in " + path);
  const auto bytes = static_cast<std::streamsize>(stored * sizeof(float));
  std::vector<float> cells(v1 + stored);
  in.read(reinterpret_cast<char*>(cells.data() + v1), bytes);
  TARR_REQUIRE(in.gcount() == bytes,
               "DistanceMatrix::load: truncated file " + path);
  return DistanceMatrix(static_cast<int>(nodes), static_cast<int>(cpn),
                        std::move(cells));
}

DistanceMatrix extract_distances(const Machine& m) {
  prof::ProfScope pscope("distance-extraction");
  return DistanceMatrix(extract_node_distances(m),
                        extract_intranode_distances(m));
}

DistanceMatrix extract_node_distances(const Machine& m) {
  prof::ProfScope pscope("distance-extraction:node");
  prof::count("distance.cells",
              static_cast<double>(m.num_nodes()) * m.num_nodes());
  DistanceMatrix d(m.num_nodes());
  // On a degraded fabric (AllowUnreachable router) a split pair is
  // "infinitely far": mappers naturally avoid it, and any schedule that
  // would actually route across the cut fails structurally instead.
  const Router& router = m.router();
  for (NodeId a = 0; a < m.num_nodes(); ++a)
    for (NodeId b = a + 1; b < m.num_nodes(); ++b)
      d.set(a, b,
            router.reachable(a, b)
                ? kInterNodeBase +
                      kPerHop * static_cast<float>(router.hops(a, b))
                : std::numeric_limits<float>::infinity());
  return d;
}

DistanceMatrix extract_intranode_distances(const Machine& m) {
  const int cpn = m.cores_per_node();
  prof::ProfScope pscope("distance-extraction:intra");
  prof::count("distance.cells", static_cast<double>(cpn) * cpn);
  DistanceMatrix d(cpn);
  for (int a = 0; a < cpn; ++a)
    for (int b = a; b < cpn; ++b)
      d.set(a, b, intra_level_weight(intranode_level(m.shape(), a, b)));
  return d;
}

}  // namespace tarr::topology
