#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

/// \file sweep.hpp
/// OSU-micro-benchmark-style parameter sweeps shared by the figure
/// harnesses.

namespace tarr::bench {

/// Power-of-two message sizes from `min` to `max` inclusive (the paper
/// sweeps 1 B .. 256 KB at 4096 processes, bounded by per-node memory).
std::vector<Bytes> osu_message_sizes(Bytes min = 1, Bytes max = 256 * 1024);

/// Percentage improvement of `variant` over `baseline` (positive = faster),
/// as plotted in Figs 3-4.
double improvement_percent(double baseline, double variant);

/// Metric-name spelling of a power-of-two message size: 64B, 16KiB, 1MiB.
std::string size_key(Bytes b);

}  // namespace tarr::bench
