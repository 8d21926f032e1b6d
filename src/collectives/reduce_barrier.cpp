#include "collectives/reduce_barrier.hpp"

namespace tarr::collectives {

Usec run_reduce_binomial(simmpi::Engine& eng) {
  const int p = eng.comm().size();
  const Usec before = eng.total();
  // Halving-tree gather with combining: stage dist moves every child
  // t+dist's partial result into its parent t.
  for (int dist = 1; dist < p; dist <<= 1) {
    eng.begin_stage();
    for (Rank t = 0; t + dist < p; t += 2 * dist)
      eng.combine(t + dist, 0, t, 0, 1);
    eng.end_stage();
  }
  return eng.total() - before;
}

}  // namespace tarr::collectives
