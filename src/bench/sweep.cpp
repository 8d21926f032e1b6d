#include "bench/sweep.hpp"

#include "common/error.hpp"

namespace tarr::bench {

std::vector<Bytes> osu_message_sizes(Bytes min, Bytes max) {
  TARR_REQUIRE(min >= 1 && min <= max, "osu_message_sizes: bad range");
  std::vector<Bytes> sizes;
  for (Bytes b = min; b <= max; b *= 2) sizes.push_back(b);
  return sizes;
}

double improvement_percent(double baseline, double variant) {
  TARR_REQUIRE(baseline > 0.0, "improvement_percent: non-positive baseline");
  return 100.0 * (baseline - variant) / baseline;
}

std::string size_key(Bytes b) {
  if (b >= (1 << 20)) return std::to_string(b >> 20) + "MiB";
  if (b >= (1 << 10)) return std::to_string(b >> 10) + "KiB";
  return std::to_string(b) + "B";
}

}  // namespace tarr::bench
