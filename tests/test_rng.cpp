#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/error.hpp"

namespace tarr {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next_u64(), first[i]);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(r.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowOneIsAlwaysZero) {
  Rng r(5);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.next_below(1), 0u);
}

TEST(Rng, NextBelowZeroThrows) {
  Rng r(5);
  EXPECT_THROW(r.next_below(0), Error);
}

/// next_below as it was before it skipped the threshold division: the
/// rejection threshold 2^64 mod bound computed on every draw.
std::uint64_t next_below_dividing_every_draw(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = rng.next_u64();
    if (r >= threshold) return r % bound;
  }
}

TEST(Rng, NextBelowKeepsTheStreamOfDividingEveryDraw) {
  // 2^63 + 1 rejects nearly half of all draws, so the retry path runs too.
  for (std::uint64_t bound :
       {1ull, 2ull, 3ull, 7ull, 7680ull, (1ull << 32) - 1, (1ull << 32) + 1,
        1ull << 63, (1ull << 63) + 1, ~0ull}) {
    Rng lib(17), ref(17);
    for (int i = 0; i < 1000; ++i)
      ASSERT_EQ(lib.next_below(bound),
                next_below_dividing_every_draw(ref, bound))
          << "bound " << bound << " draw " << i;
    EXPECT_EQ(lib.next_u64(), ref.next_u64()) << "bound " << bound;
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng r(13);
  std::vector<int> counts(4, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[r.next_below(4)];
  for (int c : counts) {
    EXPECT_GT(c, n / 4 - n / 40);
    EXPECT_LT(c, n / 4 + n / 40);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ZeroSeedProducesValidState) {
  Rng r(0);
  // Must not be stuck at zero.
  std::uint64_t x = r.next_u64() | r.next_u64() | r.next_u64();
  EXPECT_NE(x, 0u);
}

}  // namespace
}  // namespace tarr
