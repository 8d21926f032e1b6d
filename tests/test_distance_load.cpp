// DistanceMatrix::load against a header that claims a huge matrix: it is
// rejected before anything of that size is allocated.  This binary links
// the tarr::prof counting allocator (like test_tlog) to measure that; the
// other load fuzz cases are in test_deepnode's DistanceIo suite.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "common/error.hpp"
#include "prof/memhook.hpp"
#include "prof/profiler.hpp"
#include "topology/distance.hpp"

namespace tarr::topology {
namespace {

/// Write a 16-byte v2 header (magic, version 2, nodes, cores per node) with
/// no cells to `path`.
void write_v2_header(const std::string& path, std::uint32_t nodes,
                     std::uint32_t cpn) {
  const std::uint32_t h[4] = {0x74615244u, 2, nodes, cpn};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(h), sizeof(h));
}

/// Bytes requested from operator new while loading a bare v2 header that
/// claims `nodes` nodes of 8 cores.
long long load_allocation(std::uint32_t nodes) {
  const std::string path = ::testing::TempDir() + "/tarr_load_alloc.bin";
  write_v2_header(path, nodes, 8);
  prof::link_memhook();
  prof::Profiler profiler;
  {
    prof::ScopedThreadProfiler guard(&profiler);
    prof::ProfScope scope("load");
    EXPECT_THROW((void)DistanceMatrix::load(path), Error);
  }
  std::remove(path.c_str());
  const prof::Profile p = profiler.snapshot();
  EXPECT_TRUE(p.mem_tracked);
  const prof::ProfileEntry* e = p.find("load");
  return e == nullptr ? -1 : e->mem_bytes_total;
}

TEST(DistanceLoad, HugeClaimIsRejectedBeforeAllocating) {
  // A 16-byte v2 header claiming 60,000 nodes (14.4 GB of node matrix)
  // allocates exactly what the same header claiming one node does: no more
  // than the file size plus fixed costs no header can move, the file
  // stream's 8 KiB buffer and the error message.
  const long long huge_bytes = load_allocation(60000);
  EXPECT_EQ(huge_bytes, load_allocation(1));
  constexpr long long kFileBytes = 16;
  constexpr long long kStreamAndMessage = 16 * 1024;
  EXPECT_LE(huge_bytes, kFileBytes + kStreamAndMessage);
}

}  // namespace
}  // namespace tarr::topology
