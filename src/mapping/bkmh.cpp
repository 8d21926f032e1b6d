#include "common/bits.hpp"
#include "mapping/heuristics.hpp"
#include "mapping/scheme.hpp"

namespace tarr::mapping {

namespace {

/// Placements around one reference before it advances (RDMH's paper value).
constexpr int kRefUpdatePeriod = 2;

}  // namespace

/// Bruck-allgather extension of the RDMH idea (paper §VII names Bruck as
/// future work).  In Bruck's algorithm rank r receives from (r + 2^s) mod p
/// and later stages carry more blocks, so the selection rule prefers the
/// reference's furthest-stage peer; the reference advances every
/// kRefUpdatePeriod placements, like RDMH.
std::vector<int> BkmhMapper::map(const std::vector<int>& rank_to_slot,
                                 const topology::DistanceMatrix& d,
                                 Rng& rng) const {
  const int p = static_cast<int>(rank_to_slot.size());
  MappingState st(rank_to_slot, d, rng);
  if (p == 1) return finish_mapping(st, name(), rank_to_slot);

  const int top = static_cast<int>(floor_pow2(p - 1));
  Rank ref = 0;
  int i = top;
  int placed_around_ref = 0;

  while (!st.done()) {
    while (i >= 1 && st.is_mapped((ref + i) % p)) i /= 2;
    const Rank next = i >= 1 ? (ref + i) % p : st.first_unmapped();
    st.map_close_to(next, ref);
    if (++placed_around_ref >= kRefUpdatePeriod) {
      ref = next;
      i = top;
      placed_around_ref = 0;
    }
  }
  return finish_mapping(st, name(), rank_to_slot);
}

}  // namespace tarr::mapping
