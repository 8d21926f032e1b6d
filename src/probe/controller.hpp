#pragma once

#include <string>
#include <vector>

#include "fault/degraded.hpp"
#include "mapping/mapper.hpp"
#include "probe/measure.hpp"

/// \file controller.hpp
/// Adaptive re-mapping under churn: detect stale mappings, re-probe,
/// re-map — without thrashing.
///
/// The paper reorders once, up front, because its topology never changes.
/// Under multi-tenant congestion the mapping *goes stale*: background
/// traffic shifts, the links the mapper carefully avoided become quiet, the
/// ones it chose become crowded, and the collective's observed latency
/// drifts away from what the mapping delivered when it was fresh.  The
/// controller watches exactly that signal:
///
///  * after every (re-)mapping, the first observed latency becomes the
///    mapping's *reference* — what this mapping costs on the fabric it was
///    made for;
///  * each epoch the caller feeds the currently observed latency in; drift
///    is observed/reference - 1;
///  * drift above `drift_threshold` must persist for `hysteresis` CONSECUTIVE
///    epochs before a re-map triggers — one noisy epoch never thrashes the
///    mapping — and after a re-map, `cooldown` epochs are ignored entirely
///    so the new mapping's transient settling cannot immediately re-trigger;
///  * a triggered re-map probes the current fabric (probe::probe_distances
///    against its current effective distances) and re-runs the Mapper on the
///    inferred matrix;
///  * when probing *fails* (ProbeReport::failed(): too few pairs resolved),
///    the controller falls back to the identity mapping — the collective
///    keeps running on the resource manager's layout, degraded but never
///    aborted — and tries probing again at the next trigger.
///
/// Every decision is emitted into the ambient channel (prof/obs.hpp): a
/// probe.decision.calibrate / .keep / .remap / .fallback counter to both
/// legs, plus the probe's own counters and span and the re-mapping
/// heuristic's decision counters, so a sink installed around the
/// controller's calls can attribute where re-mapping paid off.  The
/// controller is deterministic in its config seed: decisions depend only on
/// (config, observed sequence, fabric sequence).

namespace tarr::probe {

/// Controller parameters.
struct ControllerConfig {
  ProbeConfig probe;
  /// Relative drift (observed/reference - 1) that counts as stale.
  double drift_threshold = 0.2;
  /// Consecutive stale epochs required before a re-map triggers.  >= 1.
  int hysteresis = 2;
  /// Epochs after a re-map during which drift is not even evaluated.  >= 0.
  int cooldown = 1;
};

/// Throws tarr::Error naming the first out-of-range field.
void validate(const ControllerConfig& cfg);

/// What the controller did with one epoch's observation.
enum class Action {
  Calibrate,  ///< first observation after a (re-)map: set the reference
  Keep,       ///< mapping still fresh (or cooling down)
  Remap,      ///< drift persisted; re-probed and re-mapped
  Fallback,   ///< drift persisted but probing failed; identity mapping
};

const char* to_string(Action a);

/// One epoch's decision record.
struct Decision {
  int epoch = 0;
  Action action = Action::Keep;
  double observed = 0.0;
  double reference = 0.0;  ///< the mapping's calibrated cost (0 before)
  double drift = 0.0;
  int drift_streak = 0;    ///< consecutive stale epochs including this one
  bool probe_failed = false;
  double probe_rms_error = 0.0;  ///< residual error of the re-probe (if any)
};

/// See file comment.  The mapper must outlive the controller.
class AdaptiveController {
 public:
  /// `slots` is the initial rank -> slot assignment (the resource manager's
  /// layout); it is also the fallback mapping.  The constructor performs the
  /// initial probe-and-map against `initial` (epoch -1, before any
  /// observation); if that probe fails the controller starts in fallback.
  AdaptiveController(const mapping::Mapper& mapper, ControllerConfig cfg,
                     const fault::DegradedTopology& initial,
                     std::vector<int> slots);

  /// Current rank -> slot mapping (M[new_rank] = slot).
  const std::vector<int>& mapping() const { return mapping_; }

  /// True while the controller is running on the identity fallback.
  bool fallback_active() const { return fallback_; }

  /// Feed one epoch's observed latency of the *current* mapping on the
  /// *current* fabric.  May re-probe `current` and swap the mapping (which
  /// takes effect for the caller's next epoch).  Epochs must be fed in
  /// increasing order.
  Decision observe(int epoch, const fault::DegradedTopology& current,
                   double observed_usec);

  /// Every decision taken so far, in epoch order.
  const std::vector<Decision>& log() const { return log_; }

  /// Re-maps performed (probe successes) and fallbacks taken.
  int remaps() const { return remaps_; }
  int fallbacks() const { return fallbacks_; }

  /// Report of the most recent probe (initial probe included).
  const ProbeReport& last_probe() const { return last_probe_; }

  /// Total simulated probing cost across every probe round so far.
  double probe_cost_usec() const { return probe_cost_usec_; }

 private:
  /// Probe `current` and install a fresh mapping (or the fallback).
  /// Returns true when the probe succeeded.
  bool reprobe_and_map(const fault::DegradedTopology& current);

  const mapping::Mapper* mapper_;
  ControllerConfig cfg_;
  std::vector<int> slots_;       ///< initial layout (fallback mapping)
  std::vector<int> mapping_;     ///< current rank -> slot
  bool fallback_ = false;
  double reference_ = -1.0;      ///< < 0 = awaiting calibration
  int drift_streak_ = 0;
  int cooldown_left_ = 0;
  int probes_done_ = 0;
  int remaps_ = 0;
  int fallbacks_ = 0;
  double probe_cost_usec_ = 0.0;
  ProbeReport last_probe_;
  std::vector<Decision> log_;
};

}  // namespace tarr::probe
