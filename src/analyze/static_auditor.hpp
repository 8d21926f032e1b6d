#pragma once

#include <string>
#include <utility>

#include "analyze/analyzer.hpp"
#include "common/error.hpp"
#include "simmpi/engine.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

/// \file static_auditor.hpp
/// StaticAuditor: the bridge between tarr::check's dynamic discipline and
/// tarr::analyze's static one.  It records the schedule a collective runner
/// drives through an Engine (splicing a ScheduleRecorder behind any sink
/// already installed, so a Tracer keeps observing) and certifies the
/// recorded IR against the collective's Contract — the same run is then
/// checked twice: dynamically by the engine's Data-mode payloads and
/// tarr::check auditors, statically by the analyzer's proof over the IR.
///
/// Header-only, like check/audit_engine.hpp, so tarr_analyze itself never
/// links against the engine: the analyzer proper stays a pure function of
/// the recorded schedule.

namespace tarr::analyze {

/// Run `run(eng)` with a ScheduleRecorder spliced into the engine's trace
/// stream and return the recorded schedule.  The engine's previous sink is
/// kept in the loop during the run and restored afterwards.
template <typename Runner>
trace::ScheduleRecord record_schedule(simmpi::Engine& eng, Runner&& run) {
  trace::ScheduleRecorder rec;
  trace::TraceSink* prev = eng.trace_sink();
  trace::TeeSink tee({prev, &rec});
  eng.set_trace_sink(&tee);
  run(eng);
  eng.set_trace_sink(prev);
  return rec.take();
}

/// See file comment.
class StaticAuditor {
 public:
  explicit StaticAuditor(AnalyzeOptions opts = {}) : opts_(std::move(opts)) {}

  /// Record the runner's schedule and statically certify it.
  template <typename Runner>
  Certificate certify(simmpi::Engine& eng, const Contract& contract,
                      Runner&& run) const {
    const trace::ScheduleRecord rec =
        record_schedule(eng, std::forward<Runner>(run));
    return analyze(rec, eng.comm().machine(), contract, opts_);
  }

  /// Like certify(), but throws tarr::Error carrying the formatted
  /// certificate when the schedule is rejected — the test-suite entry
  /// point: one call runs the collective (dynamic payload checks included)
  /// and fails loudly if the static proof does not go through.
  template <typename Runner>
  Certificate certify_or_throw(simmpi::Engine& eng, const Contract& contract,
                               Runner&& run) const {
    Certificate cert = certify(eng, contract, std::forward<Runner>(run));
    TARR_REQUIRE(cert.certified,
                 "static certification failed:\n" + cert.format());
    return cert;
  }

  const AnalyzeOptions& options() const { return opts_; }

 private:
  AnalyzeOptions opts_;
};

}  // namespace tarr::analyze
