#include "simmpi/transient.hpp"

#include "common/error.hpp"

namespace tarr::simmpi {

void validate(const TransientFaultConfig& cfg) {
  TARR_REQUIRE(cfg.drop_prob >= 0.0 && cfg.drop_prob <= 1.0,
               "TransientFaultConfig: drop_prob must be in [0, 1]");
  TARR_REQUIRE(cfg.corrupt_prob >= 0.0 && cfg.corrupt_prob <= 1.0,
               "TransientFaultConfig: corrupt_prob must be in [0, 1]");
  TARR_REQUIRE(cfg.drop_prob + cfg.corrupt_prob <= 1.0,
               "TransientFaultConfig: drop_prob + corrupt_prob must be <= 1");
  TARR_REQUIRE(cfg.max_attempts >= 1,
               "TransientFaultConfig: max_attempts must be >= 1");
  TARR_REQUIRE(cfg.retry_timeout >= 0.0,
               "TransientFaultConfig: retry_timeout must be >= 0");
  TARR_REQUIRE(cfg.backoff >= 1.0,
               "TransientFaultConfig: backoff must be >= 1");
}

}  // namespace tarr::simmpi
