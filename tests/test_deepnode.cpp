// Tests for the deep intra-node hierarchy (paper §VII future work: nodes
// with more cores and an extra L3-complex level) and for distance-matrix
// persistence (§IV: distances "extracted once, and saved for future
// references").

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mapping/comparators.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/mapcost.hpp"
#include "topology/distance.hpp"

namespace tarr::topology {
namespace {

/// A 32-core EPYC-style node: 2 sockets x 4 complexes x 4 cores.
NodeShape deep_shape() { return NodeShape{2, 16, 4}; }

TEST(DeepNode, ShapeAccessors) {
  const NodeShape s = deep_shape();
  EXPECT_EQ(s.cores_per_node(), 32);
  EXPECT_EQ(s.complexes_per_socket(), 4);
  EXPECT_EQ(NodeShape{}.complexes_per_socket(), 1);
}

TEST(DeepNode, CoreLocation) {
  const NodeShape s = deep_shape();
  EXPECT_EQ(core_location(s, 0).complex_in_socket, 0);
  EXPECT_EQ(core_location(s, 3).complex_in_socket, 0);
  EXPECT_EQ(core_location(s, 4).complex_in_socket, 1);
  EXPECT_EQ(core_location(s, 15).complex_in_socket, 3);
  EXPECT_EQ(core_location(s, 16).socket, 1);
  EXPECT_EQ(core_location(s, 16).complex_in_socket, 0);
}

TEST(DeepNode, IntranodeLevels) {
  const NodeShape s = deep_shape();
  EXPECT_EQ(intranode_level(s, 5, 5), IntraLevel::SameCore);
  EXPECT_EQ(intranode_level(s, 0, 3), IntraLevel::SameComplex);
  EXPECT_EQ(intranode_level(s, 0, 4), IntraLevel::CrossComplex);
  EXPECT_EQ(intranode_level(s, 0, 15), IntraLevel::CrossComplex);
  EXPECT_EQ(intranode_level(s, 0, 16), IntraLevel::CrossSocket);
  EXPECT_EQ(intranode_level(s, 31, 0), IntraLevel::CrossSocket);
}

TEST(DeepNode, FlatShapeHasNoCrossComplex) {
  const NodeShape flat{2, 4};
  for (int a = 0; a < 8; ++a)
    for (int b = 0; b < 8; ++b)
      EXPECT_NE(intranode_level(flat, a, b), IntraLevel::CrossComplex);
}

TEST(DeepNode, MisalignedComplexRejected) {
  const NodeShape bad{2, 4, 3};  // 3 does not divide 4
  EXPECT_THROW(core_location(bad, 0), Error);
}

TEST(DeepNode, DistanceOrderingWithComplexes) {
  const Machine m(deep_shape(), build_single_switch_network(2));
  const DistanceMatrix d = extract_distances(m);
  const float same_complex = d.at(0, 1);
  const float cross_complex = d.at(0, 4);
  const float cross_socket = d.at(0, 16);
  const float inter_node = d.at(0, 32);
  EXPECT_LT(same_complex, cross_complex);
  EXPECT_LT(cross_complex, cross_socket);
  EXPECT_LT(cross_socket, inter_node);
}

TEST(DeepNode, MachineComplexAccessor) {
  const Machine m(deep_shape(), build_single_switch_network(1));
  EXPECT_EQ(m.complex_of_core(0), 0);
  EXPECT_EQ(m.complex_of_core(5), 1);
  EXPECT_EQ(m.complex_of_core(17), 0);
  const Machine flat = Machine::gpc(1);
  EXPECT_EQ(flat.complex_of_core(3), 0);
}

TEST(DeepNode, BgmhPacksHeavyEdgesIntoComplexes) {
  // The paper's future-work question: do the binomial heuristics pay off on
  // nodes with more cores?  With 32 cores per node, BGMH must place the
  // root's heaviest child (rank 16) in rank 0's complex.
  const Machine m(deep_shape(), build_single_switch_network(1));
  const DistanceMatrix d = extract_intranode_distances(m);
  std::vector<int> initial(32);
  for (int i = 0; i < 32; ++i) initial[i] = (i % 2) * 16 + i / 2;  // scatter
  Rng rng(3);
  mapping::BgmhMapper mapper;
  const auto result = mapper.map(initial, d, rng);
  EXPECT_EQ(core_location(m.shape(), result[16]).complex_in_socket,
            core_location(m.shape(), result[0]).complex_in_socket);
  EXPECT_EQ(core_location(m.shape(), result[16]).socket,
            core_location(m.shape(), result[0]).socket);
  // And the mapping improves the weighted gather cost of the scatter input.
  const auto g =
      mapping::build_pattern_graph(mapping::Pattern::BinomialGather, 32);
  EXPECT_LT(mapping::mapping_cost(g, result, d),
            mapping::mapping_cost(g, initial, d));
}

using FileBytes = std::vector<char>;

FileBytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return FileBytes(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const FileBytes& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(b.data(), static_cast<std::streamsize>(b.size()));
}

void append_u32(FileBytes& b, std::uint32_t v) {
  const char* p = reinterpret_cast<const char*>(&v);
  b.insert(b.end(), p, p + sizeof(v));
}

/// A file header: magic, version, then n (v1) or nodes and cores per node.
FileBytes header(std::uint32_t version, std::uint32_t a, std::uint32_t b) {
  FileBytes h;
  append_u32(h, 0x74615244u);
  append_u32(h, version);
  append_u32(h, a);
  if (version == 2) append_u32(h, b);
  return h;
}

/// A v1 file as the one-level format wrote it: the header, then the dense
/// n x n matrix.
FileBytes v1_file(const DistanceMatrix& d) {
  FileBytes b = header(1, static_cast<std::uint32_t>(d.size()), 0);
  for (CoreId x = 0; x < d.size(); ++x)
    for (CoreId y = 0; y < d.size(); ++y)
      append_u32(b, std::bit_cast<std::uint32_t>(d.at(x, y)));
  return b;
}

/// Load `bytes` from disk: true if it loaded, false if it threw
/// tarr::Error.  Any other exception fails the test.
bool loads(const FileBytes& bytes) {
  const std::string path = ::testing::TempDir() + "/tarr_fuzz.bin";
  write_bytes(path, bytes);
  try {
    (void)DistanceMatrix::load(path);
    return true;
  } catch (const Error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "non-tarr exception: " << e.what();
    return false;
  }
}

void expect_same(const DistanceMatrix& got, const DistanceMatrix& want) {
  ASSERT_EQ(got.size(), want.size());
  for (CoreId a = 0; a < want.size(); ++a)
    for (CoreId b = 0; b < want.size(); ++b)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got.at(a, b)),
                std::bit_cast<std::uint32_t>(want.at(a, b)))
          << a << "," << b;
}

TEST(DistanceIo, SaveLoadRoundtrip) {
  const Machine m = Machine::gpc(4);
  const DistanceMatrix d = extract_distances(m);
  const std::string path = ::testing::TempDir() + "/tarr_dist.bin";
  d.save(path);
  // v2: magic, version, nodes, cores per node, 4 x 4 nodes, 8 x 8 template.
  EXPECT_EQ(read_bytes(path).size(), 4u * (4 + 16 + 64));
  const DistanceMatrix loaded = DistanceMatrix::load(path);
  ASSERT_EQ(loaded.size(), d.size());
  EXPECT_EQ(loaded.num_nodes(), 4);
  EXPECT_EQ(loaded.cores_per_node(), 8);
  expect_same(loaded, d);
  std::remove(path.c_str());
}

TEST(DistanceIo, LoadsV1AsOneLevelMatrix) {
  const DistanceMatrix d = extract_distances(Machine::gpc(2));
  const std::string path = ::testing::TempDir() + "/tarr_v1.bin";
  write_bytes(path, v1_file(d));
  const DistanceMatrix loaded = DistanceMatrix::load(path);
  EXPECT_EQ(loaded.num_nodes(), 1);
  EXPECT_EQ(loaded.cores_per_node(), 16);
  expect_same(loaded, d);
  std::remove(path.c_str());
}

TEST(DistanceIo, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/tarr_garbage.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a matrix", f);
    std::fclose(f);
  }
  EXPECT_THROW(DistanceMatrix::load(path), Error);
  EXPECT_THROW(DistanceMatrix::load("/nonexistent/dir/x.bin"), Error);
  std::remove(path.c_str());
  // Headers whose n^2 floats exceed memory or size_t arithmetic, and a v2
  // header with no nodes.
  for (std::uint32_t n : {30000u, 2000000000u})
    EXPECT_FALSE(loads(header(1, n, 0))) << n;
  EXPECT_FALSE(loads(header(2, 0xFFFFFFFFu, 0xFFFFFFFFu)));
  EXPECT_FALSE(loads(header(2, 0, 8)));
  // Every header bit flip of a v1 and a v2 file: either outcome, but only
  // a tarr::Error may escape.
  const DistanceMatrix d = extract_distances(Machine::gpc(2));
  d.save(path);
  const FileBytes v2 = read_bytes(path);
  std::remove(path.c_str());
  for (const FileBytes& file : {v1_file(d), v2}) {
    EXPECT_TRUE(loads(file));
    const std::size_t header_bytes = file == v2 ? 16 : 12;
    for (std::size_t bit = 0; bit < 8 * header_bytes; ++bit) {
      FileBytes flipped = file;
      flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << bit % 8));
      loads(flipped);
    }
  }
}

TEST(DistanceIo, LoadRejectsTruncated) {
  const Machine m = Machine::gpc(2);
  const DistanceMatrix d = extract_distances(m);
  const std::string path = ::testing::TempDir() + "/tarr_trunc.bin";
  d.save(path);
  const FileBytes v2 = read_bytes(path);
  // Truncate the payload.
  {
    std::FILE* f = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    ASSERT_EQ(truncate(path.c_str(), 64), 0);
  }
  EXPECT_THROW(DistanceMatrix::load(path), Error);
  std::remove(path.c_str());
  // Every cut of a v1 and a v2 file.
  for (const FileBytes& file : {v1_file(d), v2})
    for (std::size_t cut = 0; cut < file.size(); ++cut)
      EXPECT_FALSE(loads(FileBytes(file.begin(), file.begin() + cut)))
          << "cut at " << cut << " of " << file.size();
}

}  // namespace
}  // namespace tarr::topology
