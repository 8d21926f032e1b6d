#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/framework.hpp"
#include "prof/profiler.hpp"
#include "simmpi/engine.hpp"
#include "simmpi/layout.hpp"
#include "tlog/writer.hpp"
#include "trace/tracer.hpp"

/// \file driver.hpp
/// The pieces every `tarr` subcommand shares, each written once: the flag
/// parser, the run spec, the reorder by mapper name, the pattern ->
/// schedule list, the observability option set and the checked artifact
/// writer.
/// main.cpp owns the dispatch table, the usage text and the exit codes
/// (2 usage, 1 error, 3 insight gate).

namespace tarr::driver {

/// One subcommand's command line, checked against the flags it accepts.
/// Unknown flags, missing values and malformed numbers throw
/// cli::UsageError.  A flag given twice keeps its last value; every
/// occurrence is still validated.
class Flags {
 public:
  /// `accepted` lists the subcommand's flags, space-separated; a trailing
  /// '=' marks one that takes a value.  Tokens not starting with '-' are
  /// positionals, rejected unless `positionals` is set.
  Flags(int argc, char** argv, const std::string& accepted, bool positionals);

  bool has(const std::string& flag) const;
  std::string str(const std::string& flag, std::string def = {}) const;
  long long num(const std::string& flag, long long def, long long lo,
                long long hi) const;
  /// A real in [lo, hi]; by default any non-negative value.
  double real(const std::string& flag, double def, double lo = 0.0,
              double hi = std::numeric_limits<double>::max()) const;
  std::uint64_t seed(const std::string& flag, std::uint64_t def) const;

  /// Every (flag, value) in command-line order; positionals have flag "".
  const std::vector<std::pair<std::string, std::string>>& items() const {
    return items_;
  }
  std::vector<std::string> positionals() const;

 private:
  std::vector<std::pair<std::string, std::string>> items_;
};

/// The run options of map, report, viz, insight and analyze: a GPC machine,
/// a job layout, a collective pattern, a mapper, a seed and a block size.
/// Each subcommand starts from its own defaults; flags override them.
struct RunSpec {
  int nodes = 8;
  int procs = 64;
  std::string layout = "cyclic-bunch";
  std::string pattern = "ring";
  std::string mapper = "heuristic";
  std::uint64_t seed = 1;
  long long msg_bytes = 16 * 1024;

  simmpi::LayoutSpec layout_spec() const;
  mapping::Pattern collective() const;
  simmpi::Communicator comm(const topology::Machine& m) const;
  /// A reorder framework over `m` seeded with `seed`.
  core::ReorderFramework framework(const topology::Machine& m) const;
  /// "PAT over R ranks on N nodes, L layout vs M mapping, B B blocks
  /// (seed S)" — a pure function of the flags, so live and replayed
  /// renders match byte for byte.
  std::string describe(int ranks) const;
};

/// The one run-spec parser: `defaults` overridden by --nodes, --procs,
/// --layout, --pattern, --mapper, --seed and --msg.
RunSpec parse_run(const Flags& f, RunSpec defaults = {});

/// Reorders `comm` for `pattern` with "identity" (the input placement) or
/// the mapper whose key is `mapper` in core/mappers.hpp's table.
core::ReorderedComm reorder(core::ReorderFramework& fw,
                            const simmpi::Communicator& comm,
                            mapping::Pattern pattern,
                            const std::string& mapper);

/// Simulates the schedule `pattern` runs (allgather-rd, allgather-ring,
/// bcast-binomial, gather-binomial or allgather-bruck; collectives/
/// schedules.hpp) over `comm` on the Timed engine, p blocks of `msg_bytes`
/// per rank, inside the prof scope `scope`; its events go to the sink the
/// caller installed (obs::Install).  oldrank maps new rank -> original
/// rank.  Returns the simulated completion time.
Usec simulate(const simmpi::Communicator& comm, mapping::Pattern pattern,
              const std::vector<Rank>& oldrank, long long msg_bytes,
              const char* scope = "simulate");

/// simulate() with a fresh Tracer (and `also`, when non-null) installed;
/// returns the record.
trace::ScheduleRecord record(const simmpi::Communicator& comm,
                             mapping::Pattern pattern,
                             const std::vector<Rank>& oldrank,
                             long long msg_bytes,
                             trace::TraceSink* also = nullptr);

/// The observability side of one run.  The constructor collects every
/// artifact path (with map's --out-dir deriving the missing ones), checks
/// each is writable before anything runs, opens the --tlog captures,
/// builds the Tracer when asked, installs the ambient profiler when a
/// --prof* flag is given, and stacks the present sinks into one flat
/// TeeSink, which each subcommand installs (obs::Install) around the runs
/// it traces.
class Obs {
 public:
  /// `traced` builds the Tracer.
  explicit Obs(const Flags& f, bool traced = false);
  Obs(const Obs&) = delete;
  Obs& operator=(const Obs&) = delete;

  /// The artifact path of `flag`, "" when not requested.
  std::string path(const std::string& flag) const;
  /// The open capture of `flag` (--tlog or --tlog-baseline), or nullptr.
  tlog::TlogSink* tlog(const std::string& flag = "--tlog");
  /// The flat stack: tracer, then the --tlog capture; nullptr when both
  /// are absent.
  trace::TraceSink* sink() { return tee_->empty() ? nullptr : &*tee_; }
  bool profiling() const { return ambient_.has_value(); }
  prof::Profile profile() const { return profiler_.snapshot(); }

  /// Writes --trace and --metrics (prof.* totals joining the metrics);
  /// `print` adds one line per file.
  void write_trace(bool print);
  /// Writes --prof (wall columns with --wall), --prof-speedscope and
  /// --prof-collapsed, one line per file.
  void write_prof();
  /// Seals every capture; `print` adds the "tlog" line for --tlog.
  void finish_tlog(bool print = false);

  std::optional<trace::Tracer> tracer;

 private:
  std::map<std::string, std::string> paths_;
  std::map<std::string, tlog::TlogSink> tlogs_;
  std::optional<trace::TeeSink> tee_;
  prof::Profiler profiler_;
  std::optional<obs::Install> ambient_;
  bool wall_ = false;
};

int cmd_map(const Flags& f);
int cmd_campaign(const Flags& f);
int cmd_probe(const Flags& f);
int cmd_report_critical_path(const Flags& f);
int cmd_report_diff(const Flags& f);
int cmd_report_compare(const Flags& f);
/// `view` is topo, matrix, timeline, trend or dashboard.
int cmd_viz(const Flags& f, const std::string& view);
int cmd_insight_diagnose(const Flags& f);
int cmd_insight_trend(const Flags& f);
int cmd_analyze_certify(const Flags& f);
int cmd_analyze_certify_all(const Flags& f);
int cmd_analyze_list(const Flags& f);
int cmd_log_info(const Flags& f);
int cmd_log_cat(const Flags& f);
int cmd_log_stats(const Flags& f);

}  // namespace tarr::driver
