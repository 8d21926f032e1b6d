#pragma once

#include <vector>

#include "analyze/contract.hpp"
#include "collectives/alltoall.hpp"
#include "collectives/collective.hpp"
#include "collectives/gather_bcast.hpp"
#include "simmpi/engine.hpp"

/// \file contracts.hpp
/// Contract factories: the one specification of every built-in collective,
/// phrased in tarr::analyze's origin-set algebra, and the Data-mode check
/// that reads it.
///
/// Each factory states the seeding convention its runner (or its tests)
/// uses — which origin every seeded slot holds and the tag a Data-mode run
/// writes there — and the final origin sets the collective must deliver,
/// for a communicator of `p` ranks with `buf_blocks` blocks per rank and
/// the §V-B mapping `oldrank` (oldrank[j] = original rank of the process
/// acting as new rank j).  The same contract is checked statically by
/// analyze::analyze() over a recorded schedule and dynamically by
/// check_output() over a finished Data-mode engine.  Shrunken-communicator
/// runs need no dedicated factories: a shrunken collective is just the
/// standard collective over the survivor communicator, so the standard
/// contract at the survivor count (with the shrunken comm's oldrank)
/// applies verbatim.
///
/// Origin universes and seed tags:
///  * allgather/gather/scatter — origin o is original rank o's block,
///                               tagged o;
///  * allgatherv               — origin o is original rank o's counts[o]
///                               bytes, every byte tagged o;
///  * bcast                    — the single message, origin 0, tagged
///                               kBcastMessageTag;
///  * bcast-scatter-allgather  — origin b is segment b of the message,
///                               tagged b;
///  * alltoall                 — origin s*p + r is the block original rank
///                               s addresses to original rank r, tagged
///                               alltoall_tag(s, r);
///  * allreduce/reduce         — origin r (RD, reduce) or r*p + b
///                               (Rabenseifner, ring) is rank r's
///                               contribution (to segment b), tagged
///                               0x1000 + 37 * origin.  Reduction runners do
///                               not seed, so a Data-mode test writes every
///                               seed's tag itself.

namespace tarr::collectives {

/// run_allgather with `algo` over `oldrank`: every rank ends with slot b
/// holding original rank b's block, for all b < p.  The Ring contract also
/// specifies run_allgather_neighbor, which seeds and delivers exactly like
/// the ring.
analyze::Contract contract_allgather(int p, int buf_blocks,
                                     AllgatherAlgo algo,
                                     const std::vector<Rank>& oldrank);

/// run_hier_allgather / run_hier_allgather_pipelined: same seeding and
/// output as recursive-doubling allgather (seed_allgather_inputs).
analyze::Contract contract_hier_allgather(int p, int buf_blocks,
                                          const std::vector<Rank>& oldrank,
                                          bool pipelined);

/// run_allgatherv_ring with one-byte blocks: buf_blocks = sum(counts), and
/// every rank ends with original rank r's counts[r] bytes at offset
/// sum(counts[0..r)).
analyze::Contract contract_allgatherv(const std::vector<int>& counts,
                                      const std::vector<Rank>& oldrank);

/// run_gather with `algo`: the root (new rank 0) ends with slot b holding
/// original rank b's block, for all b < p.  Other ranks' buffers are
/// scratch and unconstrained.
analyze::Contract contract_gather(int p, int buf_blocks, TreeAlgo algo,
                                  const std::vector<Rank>& oldrank);

/// run_bcast: every rank ends with the root's message in slot 0.
analyze::Contract contract_bcast(int p, int buf_blocks, TreeAlgo algo);

/// run_bcast_scatter_allgather: every rank ends with message segment b in
/// slot b, for all b < p.
analyze::Contract contract_bcast_scatter_allgather(int p, int buf_blocks,
                                                   AllgatherAlgo ag);

/// run_scatter: new rank j ends with original rank oldrank[j]'s block in
/// slot j.
analyze::Contract contract_scatter(int p, int buf_blocks, TreeAlgo algo,
                                   const std::vector<Rank>& oldrank);

/// run_alltoall: new rank j ends with original rank i's block for it in
/// receive slot p + i, for all i < p.
analyze::Contract contract_alltoall(int p, int buf_blocks, AlltoallAlgo algo,
                                    const std::vector<Rank>& oldrank);

/// run_allreduce_rd with rank r's contribution in its slot 0: every rank's
/// slot 0 ends holding the XOR of all p contributions.
analyze::Contract contract_allreduce_rd(int p, int buf_blocks);

/// run_allreduce_rabenseifner with rank r seeding every segment b: every
/// rank ends with segment b holding the XOR of all p contributions to b,
/// for all b < p.  run_allreduce_ring computes the same blockwise reduction
/// from the same seeding, so this contract specifies it too.
analyze::Contract contract_allreduce_rabenseifner(int p, int buf_blocks);

/// run_reduce_binomial with rank r's contribution in its slot 0: the root
/// (new rank 0) ends with slot 0 holding the XOR of all p contributions.
analyze::Contract contract_reduce(int p, int buf_blocks);

/// Check a finished Data-mode run against `contract`: every constrained
/// slot must carry the XOR of the seed tags of the origins its required set
/// names.  Slots are checked rank-major, blocks ascending; the first
/// mismatch throws tarr::Error "<name> contract violated: rank R block B
/// carries tag X, expected Y".  Requires a Data-mode engine whose comm size
/// and buf_blocks equal the contract's.
void check_output(const simmpi::Engine& eng,
                  const analyze::Contract& contract);

}  // namespace tarr::collectives
