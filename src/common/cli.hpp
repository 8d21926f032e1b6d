#pragma once

#include <cstdint>
#include <string>

#include "common/error.hpp"

/// \file cli.hpp
/// Strict argument parsing for the `tarr` driver.
///
/// Every subcommand follows the same contract: an unknown flag, a missing
/// value, or a malformed/out-of-range numeric prints the subcommand's usage
/// text and exits 2.  These helpers hold the strict numeric parsing (full
/// token consumed, errno checked, range enforced), so every subcommand
/// rejects `--nodes 8x` or `--noise nan` the same way.
///
/// Parse failures throw cli::UsageError; the driver's dispatcher catches
/// it, prints the message followed by the usage text to stderr, and exits 2.

namespace tarr::cli {

/// A command-line error that must surface as usage text + exit code 2.
class UsageError : public Error {
 public:
  explicit UsageError(const std::string& what) : Error(what) {}
};

/// Strict base-10 integer parse of a whole token: the full string must be
/// consumed, errno must stay clear, and the value must land in [lo, hi].
long long parse_int(const std::string& opt, const char* s, long long lo,
                    long long hi);

/// Strict double parse (full token, errno, no NaN) clamped to [lo, hi].
double parse_double(const std::string& opt, const char* s, double lo,
                    double hi);

/// Non-negative integer parse widened to the unsigned 64-bit seed space.
std::uint64_t parse_seed(const std::string& opt, const char* s);

}  // namespace tarr::cli
