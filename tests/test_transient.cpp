// Transient-fault injection: retry/timeout pricing, determinism, mode
// parity, and the bit-identical fault-free path.

#include "simmpi/transient.hpp"

#include <gtest/gtest.h>

#include "collectives/allgather.hpp"
#include "collectives/contracts.hpp"
#include "common/error.hpp"
#include "common/permutation.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"

namespace tarr::simmpi {
namespace {

using topology::Machine;

/// Runs a recursive-doubling allgather and returns the engine total.
Usec run_rd(const Communicator& comm, ExecMode mode,
            const TransientFaultConfig* faults,
            TransientFaultStats* stats_out = nullptr) {
  const int p = comm.size();
  Engine eng(comm, CostConfig{}, mode, 512, p);
  if (faults) eng.set_transient_faults(*faults);
  collectives::run_allgather(
      eng,
      {collectives::AllgatherAlgo::RecursiveDoubling,
       collectives::OrderFix::None},
      identity_permutation(p));
  if (mode == ExecMode::Data) {
    collectives::check_output(
        eng, collectives::contract_allgather(
                 p, p, collectives::AllgatherAlgo::RecursiveDoubling,
                 identity_permutation(p)));
  }
  if (stats_out) *stats_out = eng.transient_stats();
  return eng.total();
}

TEST(Transient, ZeroProbabilityConfigIsBitIdenticalToNoConfig) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, {}));
  TransientFaultConfig zero;  // all probabilities default to 0
  EXPECT_FALSE(zero.enabled());
  const Usec plain = run_rd(comm, ExecMode::Timed, nullptr);
  const Usec armed = run_rd(comm, ExecMode::Timed, &zero);
  EXPECT_EQ(plain, armed);  // exact, not approximate

  Engine eng(comm, CostConfig{}, ExecMode::Timed, 512, 8);
  eng.set_transient_faults(zero);
  EXPECT_FALSE(eng.transient_faults_enabled());
}

TEST(Transient, TimedAndDataModesPriceFaultsIdentically) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, {}));
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.2;
  cfg.corrupt_prob = 0.1;
  cfg.seed = 99;
  const Usec timed = run_rd(comm, ExecMode::Timed, &cfg);
  const Usec data = run_rd(comm, ExecMode::Data, &cfg);
  EXPECT_EQ(timed, data);  // identical draw order -> identical pricing
}

TEST(Transient, DeterministicGivenSeed) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, {}));
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.seed = 7;
  TransientFaultStats s1, s2;
  const Usec t1 = run_rd(comm, ExecMode::Timed, &cfg, &s1);
  const Usec t2 = run_rd(comm, ExecMode::Timed, &cfg, &s2);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(s1.attempts, s2.attempts);
  EXPECT_EQ(s1.drops, s2.drops);
  EXPECT_EQ(s1.retransmissions, s2.retransmissions);
}

TEST(Transient, FaultsNeverMakeRunsCheaper) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, {}));
  const Usec clean = run_rd(comm, ExecMode::Timed, nullptr);
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.corrupt_prob = 0.1;
  cfg.seed = 3;
  TransientFaultStats stats;
  const Usec faulty = run_rd(comm, ExecMode::Timed, &cfg, &stats);
  EXPECT_GT(stats.retransmissions, 0);
  EXPECT_GT(faulty, clean);
}

TEST(Transient, PayloadsAlwaysDeliveredCorrectly) {
  // Data-mode correctness is checked inside run_rd against the allgather
  // contract: retries deliver every block despite faults.
  const Machine m = Machine::gpc(3);
  const Communicator comm(m, make_layout(m, 16, {}));
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.3;
  cfg.corrupt_prob = 0.2;
  cfg.seed = 21;
  run_rd(comm, ExecMode::Data, &cfg);
}

TEST(Transient, StatsAreInternallyConsistent) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 8, {}));
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.25;
  cfg.corrupt_prob = 0.15;
  cfg.seed = 5;
  TransientFaultStats stats;
  run_rd(comm, ExecMode::Timed, &cfg, &stats);
  // Every failed attempt is exactly one drop or one corruption.
  EXPECT_EQ(stats.retransmissions, stats.drops + stats.corruptions);
  EXPECT_GT(stats.attempts, stats.retransmissions);
  if (stats.drops > 0) {
    EXPECT_GT(stats.timeout_wait, 0.0);
  }
  EXPECT_GT(stats.retransmitted_bytes, 0);
}

TEST(Transient, ExhaustedRetriesThrowWithGuidance) {
  const Machine m = Machine::gpc(2);
  const Communicator comm(m, make_layout(m, 4, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 64, 4);
  TransientFaultConfig cfg;
  cfg.drop_prob = 1.0;  // never delivers
  cfg.max_attempts = 3;
  eng.set_transient_faults(cfg);
  eng.begin_stage();
  try {
    eng.copy(0, 0, 3, 0, 1);
    FAIL() << "expected exhaustion error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("FaultMask"), std::string::npos);
  }
}

TEST(Transient, ConfigValidation) {
  TransientFaultConfig cfg;
  cfg.drop_prob = -0.1;
  EXPECT_THROW(validate(cfg), Error);
  cfg = {};
  cfg.corrupt_prob = 1.5;
  EXPECT_THROW(validate(cfg), Error);
  cfg = {};
  cfg.drop_prob = 0.6;
  cfg.corrupt_prob = 0.6;  // sum > 1
  EXPECT_THROW(validate(cfg), Error);
  cfg = {};
  cfg.max_attempts = 0;
  EXPECT_THROW(validate(cfg), Error);
  cfg = {};
  cfg.retry_timeout = -1.0;
  EXPECT_THROW(validate(cfg), Error);
  cfg = {};
  cfg.backoff = 0.5;
  EXPECT_THROW(validate(cfg), Error);
  EXPECT_NO_THROW(validate(TransientFaultConfig{}));
}

TEST(Transient, MustBeArmedBeforeFirstStage) {
  const Machine m = Machine::gpc(1);
  const Communicator comm(m, make_layout(m, 2, {}));
  Engine eng(comm, CostConfig{}, ExecMode::Timed, 4, 2);
  eng.begin_stage();
  eng.copy(0, 0, 1, 0, 1);
  eng.end_stage();
  TransientFaultConfig cfg;
  cfg.drop_prob = 0.1;
  EXPECT_THROW(eng.set_transient_faults(cfg), Error);
}

}  // namespace
}  // namespace tarr::simmpi
