#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

/// \file contract.hpp
/// Collective contracts: the specification side of tarr::analyze.
///
/// A Contract states, independently of any schedule, what a collective must
/// compute: which (rank, block) slots start holding which *origin*
/// contributions, and which origin sets every slot must end up holding.  The
/// static analyzer (analyzer.hpp) abstract-interprets a recorded schedule
/// against this specification and proves — without executing the engine —
/// that every rank finishes with exactly the data the contract requires.
///
/// The abstraction mirrors the engine's Data mode exactly.  Data mode moves
/// 32-bit tags and reduces with XOR; the static analogue of an XOR of
/// distinct tags is the *set* of origins it combines, with duplicate
/// contributions cancelling (x ^ x == 0).  OriginSet below implements that
/// algebra: copy replaces a destination set, combine takes the symmetric
/// difference, and "never written" is a distinguished Unknown that poisons
/// whatever touches it.  Soundness note: the set abstraction is exact for
/// XOR over distinct seeds, so a schedule certified here computes the right
/// value for *any* choice of tag values, not just the ones a test happened
/// to seed.  The dynamic side reads the same contract:
/// collectives::check_output expects each constrained slot of a finished
/// Data-mode run to carry the XOR of its required origins' seed tags.

namespace tarr::analyze {

/// Abstract value of one buffer block: Unknown (never seeded or written) or
/// the set of origin indices whose XOR the block holds.
class OriginSet {
 public:
  /// The bottom value: contents nobody ever defined.
  OriginSet() = default;

  static OriginSet empty_set(int universe) {
    OriginSet s;
    s.known_ = true;
    s.bits_.assign((static_cast<std::size_t>(universe) + 63) / 64, 0);
    return s;
  }

  static OriginSet single(int universe, int origin) {
    OriginSet s = empty_set(universe);
    s.toggle(origin);
    return s;
  }

  bool known() const { return known_; }

  bool contains(int origin) const {
    if (!known_) return false;
    const auto w = static_cast<std::size_t>(origin) / 64;
    if (w >= bits_.size()) return false;
    return (bits_[w] >> (origin % 64)) & 1u;
  }

  /// Symmetric difference with {origin} — one XOR'd-in contribution.
  void toggle(int origin) {
    TARR_REQUIRE(known_, "OriginSet::toggle on Unknown");
    const auto w = static_cast<std::size_t>(origin) / 64;
    TARR_REQUIRE(w < bits_.size(), "OriginSet::toggle: origin out of range");
    bits_[w] ^= std::uint64_t{1} << (origin % 64);
  }

  /// Combine semantics (reduction write): symmetric difference.  Unknown on
  /// either side poisons the result — reducing undefined data is undefined.
  void combine_with(const OriginSet& o) {
    if (!known_ || !o.known_) {
      known_ = false;
      bits_.clear();
      return;
    }
    for (std::size_t w = 0; w < bits_.size(); ++w) bits_[w] ^= o.bits_[w];
  }

  bool operator==(const OriginSet& o) const {
    return known_ == o.known_ && bits_ == o.bits_;
  }
  bool operator!=(const OriginSet& o) const { return !(*this == o); }

  /// Sorted member list (empty for Unknown — check known() to distinguish).
  std::vector<int> members() const {
    std::vector<int> out;
    for (std::size_t w = 0; w < bits_.size(); ++w)
      for (std::uint64_t x = bits_[w]; x != 0; x &= x - 1)
        out.push_back(static_cast<int>(w) * 64 + std::countr_zero(x));
    return out;
  }

  /// Deterministic rendering: "?" for Unknown, "{}" / "{0,3,17}" otherwise
  /// (capped at eight members, then "...+n").
  std::string to_string() const;

 private:
  bool known_ = false;
  std::vector<std::uint64_t> bits_;
};

/// See file comment.  Build with the setters, or use the factories in
/// collectives/contracts.hpp for every built-in collective.
struct Contract {
  std::string name;     ///< e.g. "allgather/rd"
  int num_ranks = 0;    ///< communicator size the schedule ran on
  int buf_blocks = 0;   ///< per-rank buffer size in blocks
  int num_origins = 0;  ///< size of the origin universe

  /// One initial fact: before the schedule runs, `rank`'s buffer block
  /// `block` holds exactly origin `origin`'s contribution, which a Data-mode
  /// run writes as the 32-bit `tag`.  Slots without a seed start Unknown.
  /// Every seed of one origin carries the same tag, and distinct origins
  /// carry distinct nonzero tags wherever a slot combines them (a 0 would
  /// drop out of every XOR).
  struct Seed {
    Rank rank = 0;
    int block = 0;
    int origin = 0;
    std::uint32_t tag = 0;
  };
  std::vector<Seed> seeds;

  /// The distinct origin sets the contract requires, each stored once.
  std::vector<OriginSet> sets;

  /// Required final set per (rank, block), indexed rank * buf_blocks +
  /// block: an index into `sets`, or -1 where the slot is unconstrained
  /// (scratch space the collective may leave in any state).
  std::vector<int> expected;

  /// Seed (r, b) with `origin`, tagged with the origin index itself — the
  /// value the allgather-family, gather and scatter runners write.
  void seed(Rank r, int b, int origin) {
    seed(r, b, origin, static_cast<std::uint32_t>(origin));
  }
  void seed(Rank r, int b, int origin, std::uint32_t tag) {
    seeds.push_back({r, b, origin, tag});
  }

  /// Add a required set; returns its index for expect().
  int add_set(OriginSet s) {
    sets.push_back(std::move(s));
    return static_cast<int>(sets.size()) - 1;
  }

  /// Require (r, b) to end holding sets[set].
  void expect(Rank r, int b, int set) {
    if (expected.empty())
      expected.assign(static_cast<std::size_t>(num_ranks) * buf_blocks, -1);
    expected[static_cast<std::size_t>(r) * buf_blocks + b] = set;
  }

  /// The set (r, b) must end holding, or nullptr where it is unconstrained.
  const OriginSet* required(Rank r, int b) const {
    if (expected.empty()) return nullptr;
    const int s = expected[static_cast<std::size_t>(r) * buf_blocks + b];
    return s < 0 ? nullptr : &sets[static_cast<std::size_t>(s)];
  }

  /// Range/shape validation; throws tarr::Error on an ill-formed contract:
  /// seeds outside the buffer or universe, an origin seeded with two
  /// different tags, a required set that is Unknown or has a member outside
  /// [0, num_origins), or an expected index outside [-1, sets.size()).
  void validate() const;
};

}  // namespace tarr::analyze
