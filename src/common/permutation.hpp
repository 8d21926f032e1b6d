#pragma once

#include <vector>

#include "common/types.hpp"

/// \file permutation.hpp
/// Helpers for the rank permutations produced by the mapping layer.  Every
/// reorder in this library is represented as a vector `perm` with
/// `perm[i] = j` meaning "element i moves to position j"; these helpers
/// validate and manipulate that representation.

namespace tarr {

/// True iff v is a permutation of {0, .., v.size()-1}.
bool is_permutation_of_iota(const std::vector<int>& v);

/// Inverse permutation: result[perm[i]] = i.  Throws if perm is invalid.
std::vector<int> invert_permutation(const std::vector<int>& perm);

/// The identity permutation of length n.
std::vector<int> identity_permutation(int n);

}  // namespace tarr
