#pragma once

/// \file check.hpp
/// Umbrella header of tarr::check, the runtime invariant-verification
/// subsystem (see docs/CHECKING.md).
///
/// Two verifiers, one per layer of trust below the collectives:
///  * StageVerifier      — schedules the engine executes are well-formed
///                         (check/stage_verifier.hpp);
///  * verify_mapping     — mappers return bijections onto the slot universe
///                         (check/mapping_verifier.hpp).
/// What a finished collective must leave in each buffer slot is stated once,
/// as an analyze::Contract (collectives/contracts.hpp), and checked against
/// a Data-mode run by collectives::check_output.
///
/// Fast/slow tiers: the verifiers themselves are always compiled and
/// directly callable (tests use them in every configuration).  Their
/// *hot-path hooks* — the engine consulting a StageVerifier on every
/// transfer, heuristics re-validating their own output — are compiled in
/// only when the build sets TARR_SLOW_CHECKS=ON (see TARR_CHECK_SLOW in
/// common/error.hpp); one-shot boundaries such as the reorder framework
/// validate unconditionally.

#include "check/mapping_verifier.hpp"  // IWYU pragma: export
#include "check/stage_verifier.hpp"    // IWYU pragma: export
