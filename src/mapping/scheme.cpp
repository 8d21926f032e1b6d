#include "mapping/scheme.hpp"

#include <algorithm>

#include "check/mapping_verifier.hpp"
#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::mapping {

MappingState::MappingState(const std::vector<int>& rank_to_slot,
                           const topology::DistanceMatrix& d, Rng& rng)
    : p_(static_cast<int>(rank_to_slot.size())), d_(&d), rng_(&rng) {
  TARR_REQUIRE(p_ >= 1, "MappingState: empty rank set");
  int max_slot = 0;
  for (int s : rank_to_slot) {
    TARR_REQUIRE(s >= 0 && s < d.size(),
                 "MappingState: slot outside distance matrix");
    max_slot = std::max(max_slot, s);
  }
  assignment_.assign(p_, -1);
  free_index_.assign(max_slot + 1, -1);
  free_slots_.reserve(p_);
  for (int s : rank_to_slot) {
    TARR_REQUIRE(free_index_[s] == -1, "MappingState: duplicate slot");
    free_index_[s] = static_cast<int>(free_slots_.size());
    free_slots_.push_back(s);
  }
  // Step 1: rank 0 stays on its current slot.
  assign(0, rank_to_slot[0]);
}

bool MappingState::is_mapped(Rank rank) const {
  TARR_REQUIRE(rank >= 0 && rank < p_, "is_mapped: rank out of range");
  return assignment_[rank] != -1;
}

int MappingState::slot_of(Rank rank) const {
  TARR_REQUIRE(is_mapped(rank), "slot_of: rank not mapped");
  return assignment_[rank];
}

int MappingState::find_closest_to(Rank ref_rank) {
  TARR_REQUIRE(!free_slots_.empty(), "find_closest_to: no free slots");
  const int ref_slot = slot_of(ref_rank);
  const topology::DistanceMatrix::Row row = d_->from(ref_slot);
  float best = row[free_slots_[0]];
  int ties = 1;
  int chosen = free_slots_[0];
  // Reservoir-style single pass: every tied minimum is chosen with equal
  // probability without materializing the tie set.
  for (std::size_t i = 1; i < free_slots_.size(); ++i) {
    const int s = free_slots_[i];
    const float dist = row[s];
    if (dist < best) {
      best = dist;
      ties = 1;
      chosen = s;
    } else if (dist == best) {
      ++ties;
      if (rng_->next_below(static_cast<std::uint64_t>(ties)) == 0) chosen = s;
    }
  }
  prof::count("mapping.scan_steps", static_cast<double>(free_slots_.size()));
  if (ties > 1) obs::count("mapping.tie_breaks");
  return chosen;
}

void MappingState::assign(Rank rank, int slot) {
  TARR_REQUIRE(rank >= 0 && rank < p_, "assign: rank out of range");
  TARR_REQUIRE(assignment_[rank] == -1, "assign: rank already mapped");
  TARR_REQUIRE(slot >= 0 &&
                   slot < static_cast<int>(free_index_.size()) &&
                   free_index_[slot] != -1,
               "assign: slot not free");
  const int idx = free_index_[slot];
  const int last = free_slots_.back();
  free_slots_[idx] = last;
  free_index_[last] = idx;
  free_slots_.pop_back();
  free_index_[slot] = -1;
  assignment_[rank] = slot;
  ++mapped_;
  obs::count("mapping.placements");
  // The swap-remove pool and its index must stay mutually consistent; a
  // bookkeeping slip here surfaces far away as a duplicate assignment.
  // O(p) per placement, so only in TARR_SLOW_CHECKS builds.
  TARR_CHECK_SLOW(
      [this] {
        for (std::size_t i = 0; i < free_slots_.size(); ++i)
          if (free_index_[free_slots_[i]] != static_cast<int>(i)) return false;
        return true;
      }(),
      "assign: free-slot pool and index out of sync");
}

void MappingState::map_close_to(Rank rank, Rank ref_rank) {
  assign(rank, find_closest_to(ref_rank));
}

Rank MappingState::first_unmapped() const {
  for (Rank r = 0; r < p_; ++r)
    if (assignment_[r] == -1) return r;
  return kNoRank;
}

std::vector<int> MappingState::result() const {
  TARR_REQUIRE(done(), "result: mapping incomplete");
  return assignment_;
}

std::vector<int> finish_mapping(const MappingState& st,
                                const std::string& mapper,
                                const std::vector<int>& rank_to_slot) {
  std::vector<int> result = st.result();
  if constexpr (kSlowChecksEnabled)
    check::verify_mapping(mapper, rank_to_slot, result);
  return result;
}

}  // namespace tarr::mapping
