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

/// last_zero_below's stream contract spelled out: the loop of next_below
/// calls it stands for.
int last_zero_by_dividing(Rng& rng, std::uint64_t first, int count) {
  int last = -1;
  for (int j = 0; j < count; ++j)
    if (rng.next_below(first + static_cast<std::uint64_t>(j)) == 0) last = j;
  return last;
}

TEST(Rng, LastZeroBelowKeepsTheStreamOfANextBelowLoop) {
  // Every run of 0-130 draws starting at each bound 1-300, each followed by
  // a raw draw, so the state must match after every run.
  const DivisorTable bounds(1, 429);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng lib(seed), ref(seed);
    for (std::uint64_t first = 1; first <= 300; ++first)
      for (int count = 0; count <= 130; ++count) {
        ASSERT_EQ(lib.last_zero_below(bounds, first, count),
                  last_zero_by_dividing(ref, first, count))
            << "seed " << seed << " first " << first << " count " << count;
        ASSERT_EQ(lib.next_u64(), ref.next_u64())
            << "seed " << seed << " first " << first << " count " << count;
      }
  }
}

TEST(Rng, LastZeroBelowKeepsTheStreamOverEveryBoundOf7680Ranks) {
  // Step 5's tie counts at 7,680 ranks, in the runs of 64 a pool block
  // replays.
  const DivisorTable bounds(1, 7680);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng lib(seed), ref(seed);
    for (std::uint64_t first = 1; first <= 7680; first += 64)
      ASSERT_EQ(lib.last_zero_below(bounds, first, 64),
                last_zero_by_dividing(ref, first, 64))
          << "seed " << seed << " first " << first;
    EXPECT_EQ(lib.next_u64(), ref.next_u64()) << "seed " << seed;
  }
}

TEST(Rng, LastZeroBelowKeepsTheRejectedDraws) {
  // Bounds just above 2^63 reject nearly half of all draws, so the retry
  // runs often; those just below 2^63 and up to 2^64 - 1 border it.
  for (const std::uint64_t lo : {(1ull << 63) - 64, ~0ull - 127}) {
    const DivisorTable bounds(lo, 128);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      Rng lib(seed), ref(seed);
      for (std::uint64_t first = lo; first < lo + 128; first += 8) {
        ASSERT_EQ(lib.last_zero_below(bounds, first, 8),
                  last_zero_by_dividing(ref, first, 8))
            << "seed " << seed << " first " << first;
        ASSERT_EQ(lib.next_u64(), ref.next_u64())
            << "seed " << seed << " first " << first;
      }
    }
  }
  Rng probe(1);
  int rejected = 0;
  for (std::uint64_t t = (1ull << 63) + 1; t <= (1ull << 63) + 64; ++t)
    rejected += probe.next_u64() < -t % t;
  EXPECT_GT(rejected, 16);
}

TEST(Rng, LastZeroBelowRejectsBoundsOutsideTheTable) {
  const DivisorTable bounds(5, 8);  // 5..12
  Rng r(1);
  EXPECT_THROW(r.last_zero_below(bounds, 4, 1), Error);
  EXPECT_THROW(r.last_zero_below(bounds, 12, 2), Error);
  EXPECT_THROW(r.last_zero_below(bounds, 5, -1), Error);
  EXPECT_NO_THROW(r.last_zero_below(bounds, 12, 1));
  EXPECT_EQ(r.last_zero_below(bounds, 13, 0), -1);  // no draw, no bound
  EXPECT_THROW(DivisorTable(0, 1), Error);
  EXPECT_THROW(DivisorTable(~0ull, 2), Error);
  EXPECT_EQ(DivisorTable(~0ull, 1).size(), 1u);
}

TEST(Rng, DivisorTableDecidesDivisibilityAtTheEdges) {
  // Every bound of the tie tables and both ends of the 64-bit range, and
  // each power of two with its neighbours, against r % t over the values
  // around 0, t and the largest multiple of t, where a rounding slip in the
  // limit or the rotate would show.
  std::vector<DivisorTable> tables;
  tables.emplace_back(1, 7680);
  tables.emplace_back((1ull << 63) - 64, 128);
  tables.emplace_back(~0ull - 127, 128);
  for (int k = 2; k < 64; ++k) tables.emplace_back((1ull << k) - 1, 3);
  Rng rng(23);
  for (const DivisorTable& bounds : tables)
    for (std::uint64_t t = bounds.first(); t - bounds.first() < bounds.size();
         ++t) {
      const std::uint64_t top = ~0ull / t * t;  // the largest multiple
      const std::uint64_t edges[] = {
          0, 1, t - 1, t, t + 1, 2 * t, top - 1, top, top + 1, ~0ull - 1,
          ~0ull, rng.next_u64(), rng.next_below(~0ull / t) * t};
      for (std::uint64_t r : edges)
        ASSERT_EQ(bounds.divides(t, r), r % t == 0) << "bound " << t
                                                     << " r " << r;
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
