#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

/// \file stage_verifier.hpp
/// Runtime verification of collective schedules as the simulation engine
/// executes them.
///
/// The simmpi Engine is an *interpreter* of transfer schedules: a silently
/// malformed schedule (two writers racing on one block, an out-of-range
/// copy, a stage that prices nothing) still produces a plausible-looking
/// simulated time, corrupting every number derived from it.  StageVerifier
/// shadows the Engine's begin_stage/copy/combine/end_stage protocol and
/// throws tarr::Error — naming the violated invariant — the moment a
/// schedule breaks one of the rules below.
///
/// Invariants enforced per stage:
///  * protocol     — transfers only inside an open stage; stages never nest;
///  * bounds       — endpoint ranks and block ranges inside the buffer;
///  * determinism  — no block is overwritten twice, or both overwritten and
///                   combined, within one stage (combine+combine is legal:
///                   the combine op is commutative and associative);
///  * pricing      — a transfer between two distinct ranks that share a
///                   physical core must not exist (it would be priced as a
///                   remote message for what is physically a local copy);
///  * progress     — a closed stage must have carried at least one transfer
///                   (an empty stage is a schedule bug: it costs nothing but
///                   skews stage counts and trace streams).
///
/// The verifier is independent of the Engine so it can be unit-tested
/// directly and linked anywhere; the Engine instantiates one per run when
/// the build has TARR_SLOW_CHECKS=ON.

namespace tarr::check {

/// See file comment.
class StageVerifier {
 public:
  /// `core_of_rank[r]` is the physical core hosting rank r; `buf_blocks` is
  /// the per-rank buffer length in blocks.
  StageVerifier(int num_ranks, int buf_blocks, std::vector<CoreId> core_of_rank);

  /// Mirror of Engine::begin_stage().
  void on_begin_stage();

  /// Mirror of Engine::copy()/combine(); `combining` selects the semantics.
  void on_transfer(Rank src, int src_off, Rank dst, int dst_off, int nblocks,
                   bool combining);

  /// Mirror of Engine::end_stage().
  void on_end_stage();

  /// Number of stages that passed verification so far.
  int stages_verified() const { return stages_verified_; }

 private:
  enum class WriteKind : std::uint8_t { None = 0, Overwrite, Combine };

  std::size_t cell(Rank r, int block) const {
    return static_cast<std::size_t>(r) * static_cast<std::size_t>(buf_blocks_) +
           static_cast<std::size_t>(block);
  }

  int num_ranks_;
  int buf_blocks_;
  std::vector<CoreId> core_of_rank_;
  bool stage_open_ = false;
  int stage_transfers_ = 0;
  int stages_verified_ = 0;
  std::vector<WriteKind> writes_;       // (rank, block) -> kind, open stage
  std::vector<std::size_t> touched_;    // cells to reset at end_stage
};

}  // namespace tarr::check
