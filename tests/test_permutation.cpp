#include "common/permutation.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace tarr {
namespace {

TEST(Permutation, IdentityIsPermutation) {
  EXPECT_TRUE(is_permutation_of_iota(identity_permutation(5)));
  EXPECT_TRUE(is_permutation_of_iota({}));
}

TEST(Permutation, DetectsNonPermutations) {
  EXPECT_FALSE(is_permutation_of_iota({0, 0}));
  EXPECT_FALSE(is_permutation_of_iota({1, 2}));
  EXPECT_FALSE(is_permutation_of_iota({-1, 0}));
  EXPECT_FALSE(is_permutation_of_iota({0, 2}));
  EXPECT_TRUE(is_permutation_of_iota({2, 0, 1}));
}

TEST(Permutation, InvertSmall) {
  const std::vector<int> p{2, 0, 1};
  const std::vector<int> inv = invert_permutation(p);
  EXPECT_EQ(inv, (std::vector<int>{1, 2, 0}));
}

TEST(Permutation, InvertRejectsInvalid) {
  EXPECT_THROW(invert_permutation({0, 0, 1}), Error);
}

TEST(Permutation, InverseRoundTripsShuffles) {
  Rng rng(99);
  for (int n : {1, 2, 5, 17, 64}) {
    // Fisher-Yates shuffle of the identity.
    std::vector<int> p = identity_permutation(n);
    for (int i = n - 1; i > 0; --i)
      std::swap(p[i], p[rng.next_below(i + 1)]);
    const auto inv = invert_permutation(p);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(inv[p[i]], i);
      EXPECT_EQ(p[inv[i]], i);
    }
  }
}

}  // namespace
}  // namespace tarr
