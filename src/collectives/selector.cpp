#include "collectives/selector.hpp"

#include "common/bits.hpp"
#include "prof/obs.hpp"

namespace tarr::collectives {

namespace {

/// The selector is a pure function, so its decision counters go to the
/// ambient channel (one thread-local load when nothing is installed).
AllgatherAlgo count_pick(AllgatherAlgo algo, const char* counter) {
  obs::count(counter);
  return algo;
}

}  // namespace

AllgatherAlgo select_allgather_algo(int p, Bytes msg_bytes) {
  if (msg_bytes < kRdMaxMsg) {
    return is_pow2(p)
               ? count_pick(AllgatherAlgo::RecursiveDoubling, "selector.rd")
               : count_pick(AllgatherAlgo::Bruck, "selector.bruck");
  }
  return count_pick(AllgatherAlgo::Ring, "selector.ring");
}

}  // namespace tarr::collectives
