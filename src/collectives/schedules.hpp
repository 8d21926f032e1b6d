#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "analyze/contract.hpp"
#include "mapping/mapper.hpp"
#include "simmpi/engine.hpp"

/// \file schedules.hpp
/// The named collective schedules: one entry per collective, algorithm and
/// §V-B order fix, stating everything a caller needs to run it — the
/// heuristic pattern that matches it (§IV reorders a communicator once per
/// pattern), its buffer, its runner and its output contract.  `tarr
/// analyze`, the `tarr` run commands, the fault campaign, the probed
/// scenario and the contract tests all run collectives from this one list.
///
/// A runner applies its order fix unconditionally: init_comm_exchange and
/// end_shuffle do nothing at the identity permutation, so an un-reordered
/// run records exactly what a fix-free run records.

namespace tarr::collectives {

/// One named schedule.
struct Schedule {
  const char* name;
  /// The communication pattern whose fine-tuned heuristic reorders for it.
  mapping::Pattern pattern;
  /// Per-rank buffer of buf_mul * p blocks, or one block when buf_mul is 0.
  int buf_mul;
  /// Whether runs under a heuristic's reordering are certified: `tarr
  /// analyze --reorder` maps it with its pattern's heuristic, and
  /// test_analyze reorders it.  Hierarchical schedules take node-block
  /// reorderings only, so they say no.
  bool reorderable;
  /// Needs a node-contiguous communicator of whole nodes.
  bool hierarchical;
  /// Runs the collective on `eng`, whose new rank j is original rank
  /// oldrank[j]; returns the simulated time it added.
  std::function<Usec(simmpi::Engine& eng, const std::vector<Rank>& oldrank)>
      run;
  /// What a Data-mode run over p ranks and buf_blocks(p) blocks delivers.
  std::function<analyze::Contract(int p, int buf_blocks,
                                  const std::vector<Rank>& oldrank)>
      contract;

  int buf_blocks(int p) const { return buf_mul == 0 ? 1 : buf_mul * p; }
};

/// Every named schedule, in `tarr analyze list` order.
const std::vector<Schedule>& schedules();

/// The schedule called `name`; throws tarr::Error naming an unknown one.
const Schedule& find_schedule(std::string_view name);

}  // namespace tarr::collectives
