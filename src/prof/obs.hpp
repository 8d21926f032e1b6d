#pragma once

#include <string_view>

/// \file obs.hpp
/// The ambient observability channel (see docs/OBSERVABILITY.md, "Cost
/// discipline").
///
/// The only way anything reaches a trace sink or a profiler.  Layers emit
/// into one per-thread channel instead of carrying a sink or a profiler
/// pointer in their signatures: the mapping heuristics, the bisection
/// engine, the algorithm selector, refinement, the fault campaign and the
/// probe emit at each event, and a simmpi::Engine takes the sink when it is
/// built.  So a sink installed around a run receives everything the run
/// emits, the engines it builds included.  The channel has two legs, a
/// trace sink and a profiler; both are null by default, and with neither
/// installed every emission is one thread-local load and a branch, with no
/// allocation.

namespace tarr::trace {
class TraceSink;
}  // namespace tarr::trace

namespace tarr::prof {
class Profiler;
}  // namespace tarr::prof

namespace tarr::obs {

/// The calling thread's two legs.
struct Ambient {
  trace::TraceSink* sink = nullptr;
  prof::Profiler* prof = nullptr;
};

/// The calling thread's channel.
const Ambient& ambient();

/// RAII installer of one leg.  A null argument keeps the enclosing leg, so
/// a component with an optional sink of its own installs it unconditionally
/// and otherwise emits into whatever its caller installed.  The destructor
/// restores the leg it was given, so installers nest.
class Install {
 public:
  explicit Install(trace::TraceSink* sink);
  explicit Install(prof::Profiler* prof);
  ~Install();
  Install(const Install&) = delete;
  Install& operator=(const Install&) = delete;

 private:
  bool sink_leg_;
  Ambient prev_;
};

/// Charge a decision counter (placements, tie-breaks, bisection calls,
/// refinement swaps, selector picks) to both legs: the sink's add_count and
/// the profiler's innermost scope.  The name is copied once, and only when
/// a leg is installed.  Work counters that only the profiler reads go
/// through prof::count.
void count(std::string_view name, double delta = 1.0);

/// Send a Fig 7 wall-clock span (distance extraction, one mapping run, one
/// refinement run) to the ambient sink.
void wall_span(std::string_view name, double seconds);

}  // namespace tarr::obs
