#include "common/rng.hpp"

#include "common/error.hpp"

namespace tarr {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

/// One xoshiro256** step of the state s.
std::uint64_t step(std::uint64_t* s) {
  const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
  const std::uint64_t t = s[1] << 17;
  s[2] ^= s[0];
  s[3] ^= s[1];
  s[1] ^= s[2];
  s[0] ^= s[3];
  s[2] ^= t;
  s[3] = rotl(s[3], 45);
  return result;
}

/// next_below's rejection rule: r is redrawn below the threshold
/// 2^64 mod bound.  That threshold is below bound, so an r of at least bound
/// is accepted without dividing for it.
bool rejected(std::uint64_t r, std::uint64_t bound) {
  return r < bound && r < -bound % bound;
}

/// The inverse of an odd d mod 2^64.  d is its own inverse mod 8, and each
/// Newton step doubles the number of correct low bits: 3, 6, ..., 96.
std::uint64_t odd_inverse(std::uint64_t d) {
  std::uint64_t x = d;
  for (int i = 0; i < 5; ++i) x *= 2 - d * x;
  return x;
}

}  // namespace

DivisorTable::DivisorTable(std::uint64_t first, std::uint64_t size)
    : first_(first) {
  TARR_REQUIRE(first > 0, "DivisorTable: bounds must be positive");
  TARR_REQUIRE(size <= -first, "DivisorTable: bounds exceed 64 bits");
  entries_.reserve(size);
  for (std::uint64_t t = first; t - first < size; ++t)
    entries_.push_back(
        Entry{odd_inverse(t >> std::countr_zero(t)), ~std::uint64_t{0} / t});
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro must not start from the all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() { return step(s_); }

std::uint64_t Rng::next_below(std::uint64_t bound) {
  TARR_REQUIRE(bound > 0, "next_below: bound must be positive");
  // Rejection sampling avoids modulo bias.
  for (;;) {
    const std::uint64_t r = next_u64();
    if (!rejected(r, bound)) return r % bound;
  }
}

int Rng::last_zero_below(const DivisorTable& bounds, std::uint64_t first,
                         int count) {
  const std::uint64_t at = first - bounds.first();
  TARR_REQUIRE(count >= 0 && first >= bounds.first() && at <= bounds.size() &&
                   static_cast<std::uint64_t>(count) <= bounds.size() - at,
               "last_zero_below: bound outside the table");
  // The state lives in locals for the whole run of draws.
  std::uint64_t s[4] = {s_[0], s_[1], s_[2], s_[3]};
  int last = -1;
  for (int j = 0; j < count; ++j) {
    const std::uint64_t bound = first + static_cast<std::uint64_t>(j);
    std::uint64_t r = step(s);
    while (rejected(r, bound)) r = step(s);
    if (bounds.divides(bound, r)) last = j;
  }
  for (int i = 0; i < 4; ++i) s_[i] = s[i];
  return last;
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (a + 1) +
                    0xbf58476d1ce4e5b9ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace tarr
