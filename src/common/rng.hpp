#pragma once

#include <bit>
#include <cstdint>
#include <vector>

/// \file rng.hpp
/// Small deterministic RNG (xoshiro256**) used wherever the paper calls for a
/// random choice (Algorithm 1 step 5 breaks distance ties randomly).  We do
/// not use std::mt19937 so that results are bit-identical across standard
/// library implementations, which keeps the test suite and the benchmark
/// tables reproducible.

namespace tarr {

/// Divisibility by each bound of a contiguous range decided by one multiply
/// instead of a division (Granlund & Montgomery, "Division by invariant
/// integers using multiplication", PLDI 1994).  A bound t = d * 2^k with d
/// odd keeps the inverse of d mod 2^64 and floor((2^64 - 1) / t); r is a
/// multiple of t exactly when (r * inverse) rotated right by k is at most
/// that limit.  16 bytes per bound.
class DivisorTable {
 public:
  /// The bounds first, first + 1, ..., first + size - 1; first must be > 0
  /// and the last bound must fit in 64 bits.
  DivisorTable(std::uint64_t first, std::uint64_t size);

  std::uint64_t first() const { return first_; }
  std::uint64_t size() const { return entries_.size(); }

  /// True iff `bound`, which must lie in the table, divides r.
  bool divides(std::uint64_t bound, std::uint64_t r) const {
    const Entry& e = entries_[bound - first_];
    return std::rotr(r * e.inverse, std::countr_zero(bound)) <= e.limit;
  }

 private:
  struct Entry {
    std::uint64_t inverse;  // of the bound's odd part, mod 2^64
    std::uint64_t limit;    // floor((2^64 - 1) / bound)
  };
  std::uint64_t first_;
  std::vector<Entry> entries_;
};

/// xoshiro256** by Blackman & Vigna (public domain reference algorithm),
/// seeded via splitmix64 so that any 64-bit seed yields a good state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialize the full state from a single 64-bit seed.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound).  bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  /// The draws next_below(first), next_below(first + 1), ...,
  /// next_below(first + count - 1) in that order, each one's test for 0
  /// read from `bounds` instead of divided out.  Stream contract: every
  /// draw, rejected ones included, is that loop's, so the state afterwards
  /// is too.  Returns the index of the last draw that gave 0, or -1 if none
  /// did.  Every bound drawn must lie in `bounds`.
  int last_zero_below(const DivisorTable& bounds, std::uint64_t first,
                      int count);

  /// Uniform double in [0, 1).
  double next_double();

 private:
  std::uint64_t s_[4];
};

/// Derive an independent, deterministic seed from a parent seed and two
/// coordinates (splitmix64-style finalizer).  This is how nested loops —
/// campaign trials, probe samples, controller epochs — obtain per-iteration
/// streams that neither overlap nor depend on iteration order.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b);

}  // namespace tarr
