#include "collectives/reduce_barrier.hpp"

#include "collectives/patterns.hpp"

namespace tarr::collectives {

Usec run_reduce_binomial(simmpi::Engine& eng) {
  const Usec before = eng.total();
  // Halving-tree gather with combining: every child's partial result goes
  // into its parent.
  patterns::tree_up(eng, eng.comm().size(), 1,
                    [&eng](Rank child, Rank parent, int) {
                      eng.combine(child, 0, parent, 0, 1);
                    });
  return eng.total() - before;
}

}  // namespace tarr::collectives
