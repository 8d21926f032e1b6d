#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

/// \file transient.hpp
/// Transient-fault model for the simulation engine.
///
/// Real fabrics drop and corrupt packets; reliable transports (IB RC, TCP)
/// hide that behind retransmission, so a collective never sees wrong data —
/// it sees *time*.  The engine reproduces exactly that contract: every
/// remote transfer is subjected to seeded per-attempt drop/corrupt draws,
/// failed attempts are retried with exponential timeout backoff, and the
/// price of every attempt is charged to the stage through the normal
/// contention-aware cost model (a retransmission loads the same links again).
/// Payloads are never corrupted in the delivered result — a corrupt attempt
/// models a checksum-detected NACK-and-resend, a drop models a timeout —
/// so Data-mode outputs, the StageVerifier invariants and the collective
/// contracts (collectives::check_output) all hold unchanged under faults,
/// and Timed and Data modes stay pricing-identical for identical schedules.
///
/// With the fault model disabled (the default) the engine takes the exact
/// fault-free code path: costs and payloads are bit-identical to a build
/// that never heard of this header.

namespace tarr::simmpi {

/// Per-transfer transient-fault parameters.  Probabilities are per *attempt*;
/// a transfer keeps retrying until an attempt succeeds or `max_attempts` is
/// exhausted (which throws — the link is effectively dead and should be
/// failed through fault::FaultMask instead).
struct TransientFaultConfig {
  double drop_prob = 0.0;     ///< attempt lost; detected by timeout
  double corrupt_prob = 0.0;  ///< attempt delivered corrupt; NACKed instantly
  int max_attempts = 16;      ///< attempts before declaring the link dead
  Usec retry_timeout = 50.0;  ///< first drop-detection timeout
  double backoff = 2.0;       ///< timeout multiplier per successive drop
  std::uint64_t seed = 0xfa1755eedull;  ///< per-engine draw sequence seed

  /// True when any fault can actually fire; the engine skips the model (and
  /// consumes no randomness) otherwise.
  bool enabled() const { return drop_prob > 0.0 || corrupt_prob > 0.0; }
};

/// Validate ranges (probabilities in [0,1] with drop+corrupt <= 1,
/// max_attempts >= 1, non-negative timeout, backoff >= 1).  Throws
/// tarr::Error naming the offending field.
void validate(const TransientFaultConfig& cfg);

/// Counters accumulated by an engine running with transient faults.
struct TransientFaultStats {
  long long attempts = 0;         ///< total attempts, successful ones included
  long long drops = 0;            ///< attempts lost to a drop
  long long corruptions = 0;      ///< attempts delivered corrupt and NACKed
  long long retransmissions = 0;  ///< extra attempts (= drops + corruptions)
  Bytes retransmitted_bytes = 0;  ///< bytes of the extra attempts
  Usec timeout_wait = 0.0;        ///< total drop-detection wait accumulated

  std::string describe() const;
};

}  // namespace tarr::simmpi
