#pragma once

#include <string>
#include <vector>

/// \file mapping_verifier.hpp
/// Verification of mapper output at every Mapper boundary.
///
/// Every mapper in this library receives the initial assignment
/// `rank_to_slot[i] = slot hosting rank i` and must return a *bijection onto
/// the same slot universe*: each input slot used exactly once, no slot
/// invented, no slot dropped.  A mapper that silently violates this produces
/// a "reordered communicator" in which two ranks share a core or a core
/// falls out of the communicator — and every simulated time measured over it
/// is meaningless.  These checks throw tarr::Error naming the offending
/// mapper and the violated invariant.

namespace tarr::check {

/// Throws unless `result` is a bijection onto the slot universe of `input`
/// (`mapper` names the source in the error message).  Also rejects a
/// malformed *input* (duplicate slots), which indicates corruption upstream
/// of the mapper.
void verify_mapping(const std::string& mapper, const std::vector<int>& input,
                    const std::vector<int>& result);

}  // namespace tarr::check
