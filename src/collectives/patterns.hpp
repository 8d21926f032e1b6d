#pragma once

#include <algorithm>

#include "common/bits.hpp"
#include "simmpi/engine.hpp"

/// \file patterns.hpp
/// The stage loops of the communication patterns the paper's heuristics are
/// keyed to: recursive doubling's pairwise exchange (RDMH), the ring (RMH),
/// the binomial halving trees of gather and broadcast (BGMH, BBMH) and the
/// linear sweep through a root.  A loop opens and closes every stage and
/// names who talks to whom; the runner's emitter says what moves (which
/// blocks, copied or combined) with one engine call per pair.  The emitter
/// is taken by value and called directly, so a priced stage costs no
/// indirect call per transfer.
///
/// The tree and linear loops run `groups` copies of an n-member pattern side
/// by side: group g holds ranks g*n .. g*n+n-1 and is rooted at g*n.  Within
/// a stage they issue group by group, then member by member, as the
/// hierarchical allgather's intra-node phases do (one group per node).
/// Emitters receive communicator ranks.

namespace tarr::collectives::patterns {

/// Recursive doubling over ranks 0..n-1 (n a power of two): stage dist = 1,
/// 2, 4, ... pairs every i with i ^ dist; emit(i, i ^ dist, dist).
template <class Emit>
void exchange(simmpi::Engine& eng, int n, Emit emit) {
  for (int dist = 1; dist < n; dist <<= 1) {
    eng.begin_stage();
    for (Rank i = 0; i < n; ++i) emit(i, i ^ dist, dist);
    eng.end_stage();
  }
}

/// Ring over ranks 0..n-1: stage s = 0 .. n-2 sends from every i to its
/// successor; emit(i, (i + 1) % n, s).  The stages are isomorphic, so when
/// the engine compresses repeats (Timed mode, no transient faults) only
/// stage 0 is issued and then repeated n-2 more times; every other run
/// issues each stage.  No stage for n < 2.
template <class Emit>
void ring(simmpi::Engine& eng, int n, Emit emit) {
  if (n < 2) return;
  const bool compress = eng.compresses_repeats();
  const int stages = compress ? 1 : n - 1;
  for (int s = 0; s < stages; ++s) {
    eng.begin_stage();
    for (Rank i = 0; i < n; ++i) emit(i, (i + 1) % n, s);
    eng.end_stage();
  }
  if (compress && n > 2) eng.repeat_last_stage(n - 2);
}

/// Binomial halving tree toward each group's root (gather, reduce): stage
/// dist = 1, 2, 4, ... moves every child c = t + dist, with its subtree of
/// min(dist, n - (c - root)) members, into its parent t; emit(c, t, size).
template <class Emit>
void tree_up(simmpi::Engine& eng, int n, int groups, Emit emit) {
  for (int dist = 1; dist < n; dist <<= 1) {
    eng.begin_stage();
    for (int g = 0; g < groups; ++g) {
      const Rank root = g * n;
      for (int t = 0; t + dist < n; t += 2 * dist)
        emit(root + t + dist, root + t, std::min(dist, n - (t + dist)));
    }
    eng.end_stage();
  }
}

/// The same tree from each group's root (broadcast, scatter): stage dist =
/// ceil_pow2(n)/2, ..., 2, 1 moves from every parent t to its child
/// c = t + dist, whose subtree has min(dist, n - (c - root)) members;
/// emit(t, c, size).
template <class Emit>
void tree_down(simmpi::Engine& eng, int n, int groups, Emit emit) {
  for (int dist = static_cast<int>(ceil_pow2(n) / 2); dist >= 1; dist /= 2) {
    eng.begin_stage();
    for (int g = 0; g < groups; ++g) {
      const Rank root = g * n;
      for (int t = 0; t + dist < n; t += 2 * dist)
        emit(root + t, root + t + dist, std::min(dist, n - (t + dist)));
    }
    eng.end_stage();
  }
}

/// Linear sweep: stage k = 1 .. n-1 pairs every group's root with its k-th
/// member, one member per stage as a root serializes its messages;
/// emit(root, root + k).
template <class Emit>
void linear(simmpi::Engine& eng, int n, int groups, Emit emit) {
  for (int k = 1; k < n; ++k) {
    eng.begin_stage();
    for (int g = 0; g < groups; ++g) emit(g * n, g * n + k);
    eng.end_stage();
  }
}

}  // namespace tarr::collectives::patterns
