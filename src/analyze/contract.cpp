#include "analyze/contract.hpp"

namespace tarr::analyze {

std::string OriginSet::to_string() const {
  if (!known_) return "?";
  const std::vector<int> m = members();
  std::string out = "{";
  const std::size_t shown = std::min<std::size_t>(m.size(), 8);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i > 0) out += ",";
    out += std::to_string(m[i]);
  }
  if (m.size() > shown)
    out += ",...+" + std::to_string(m.size() - shown);
  out += "}";
  return out;
}

void Contract::validate() const {
  TARR_REQUIRE(!name.empty(), "Contract: unnamed");
  TARR_REQUIRE(num_ranks >= 1, "Contract: num_ranks must be >= 1");
  TARR_REQUIRE(buf_blocks >= 1, "Contract: buf_blocks must be >= 1");
  TARR_REQUIRE(num_origins >= 1, "Contract: num_origins must be >= 1");
  std::vector<std::uint32_t> tag_of(static_cast<std::size_t>(num_origins));
  std::vector<char> seeded(static_cast<std::size_t>(num_origins), 0);
  for (const Seed& s : seeds) {
    TARR_REQUIRE(s.rank >= 0 && s.rank < num_ranks,
                 "Contract: seed rank out of range");
    TARR_REQUIRE(s.block >= 0 && s.block < buf_blocks,
                 "Contract: seed block out of range");
    TARR_REQUIRE(s.origin >= 0 && s.origin < num_origins,
                 "Contract: seed origin out of range");
    TARR_REQUIRE(!seeded[s.origin] || tag_of[s.origin] == s.tag,
                 "Contract: origin " + std::to_string(s.origin) +
                     " is seeded with two different tags");
    seeded[s.origin] = 1;
    tag_of[s.origin] = s.tag;
  }
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const std::vector<int> m = sets[i].members();
    TARR_REQUIRE(sets[i].known() && (m.empty() || m.back() < num_origins),
                 "Contract: required set " + std::to_string(i) +
                     " is not a subset of the " +
                     std::to_string(num_origins) + "-origin universe");
  }
  TARR_REQUIRE(expected.empty() ||
                   expected.size() == static_cast<std::size_t>(num_ranks) *
                                          buf_blocks,
               "Contract: expected matrix has the wrong shape");
  const int num_sets = static_cast<int>(sets.size());
  for (const int e : expected)
    TARR_REQUIRE(e >= -1 && e < num_sets,
                 "Contract: expected set index out of range");
}

}  // namespace tarr::analyze
