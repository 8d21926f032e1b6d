#pragma once

#include <cstdint>
#include <string>

#include "trace/record.hpp"

/// \file mutate.hpp
/// Seeded schedule mutations — the analyzer's adversary.
///
/// Each mutation takes a well-formed, dataflow-faithful ScheduleRecord and
/// corrupts it in one targeted way that a correct static analyzer must
/// reject with a specific leading diagnosis.  They are the negative tests of
/// tarr::analyze: certification of the genuine schedules shows the analyzer
/// accepts what the engine does, the mutations show it would notice if a
/// future scheduler (or the synthesis search on the roadmap) emitted
/// something subtly wrong.
///
/// The mutations renumber stage fields and recompute the event clock after
/// editing, so the cheap structural passes stay green and detection falls
/// to the property each mutation is designed to break:
///
///   DropTransfer   — a late remote copy (and its priced transfer) vanishes
///                    -> ContractViolation: some rank ends without a block.
///   SwapStages     — two adjacent stages trade places (consistently
///                    renumbered) -> UninitializedRead: a stage sends data
///                    that now only arrives later.
///   TruncateBytes  — a priced transfer carries half its submitted bytes
///                    -> ByteConservation: send/recv multisets diverge.
///   DuplicateBlock — a copy and its transfer are submitted twice
///                    -> WriteConflict: the slot is plain-written twice in
///                    one stage.

namespace tarr::analyze {

enum class Mutation { DropTransfer, SwapStages, TruncateBytes, DuplicateBlock };

const char* to_string(Mutation m);

/// Apply one seeded mutation in place.  The victim is drawn
/// deterministically from `seed` over a deterministic candidate order, so
/// equal (record, mutation, seed) triples yield byte-identical mutated
/// records.  Throws tarr::Error if the record offers no viable victim
/// (e.g. fewer than two stages for SwapStages).  Returns a one-line
/// description of the edit.
std::string apply_mutation(trace::ScheduleRecord& rec, Mutation m,
                           std::uint64_t seed);

}  // namespace tarr::analyze
