#include "probe/controller.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "probe/congestion.hpp"
#include "prof/profiler.hpp"

namespace tarr::probe {

void validate(const ControllerConfig& cfg) {
  validate(cfg.probe);
  TARR_REQUIRE(cfg.drift_threshold > 0.0,
               "controller: drift_threshold must be > 0");
  TARR_REQUIRE(cfg.hysteresis >= 1, "controller: hysteresis must be >= 1");
  TARR_REQUIRE(cfg.cooldown >= 0, "controller: cooldown must be >= 0");
}

const char* to_string(Action a) {
  switch (a) {
    case Action::Calibrate:
      return "calibrate";
    case Action::Keep:
      return "keep";
    case Action::Remap:
      return "remap";
    case Action::Fallback:
      return "fallback";
  }
  return "?";
}

AdaptiveController::AdaptiveController(const mapping::Mapper& mapper,
                                       ControllerConfig cfg,
                                       const fault::DegradedTopology& initial,
                                       std::vector<int> slots)
    : mapper_(&mapper), cfg_(std::move(cfg)), slots_(std::move(slots)) {
  validate(cfg_);
  TARR_REQUIRE(!slots_.empty(), "controller: empty slot list");
  reprobe_and_map(initial);
}

Decision AdaptiveController::observe(int epoch,
                                     const fault::DegradedTopology& current,
                                     double observed_usec) {
  TARR_REQUIRE(observed_usec > 0.0, "controller: observed cost must be > 0");
  prof::ProfScope pscope("probe.decide");
  Decision d;
  d.epoch = epoch;
  d.observed = observed_usec;

  if (reference_ < 0.0) {
    // First observation of a fresh mapping: this IS the predicted cost.
    // Observed and predicted latency live on different scales (hop-weighted
    // model units vs whatever the fabric reports), so the controller
    // calibrates instead of comparing them directly.
    reference_ = observed_usec;
    d.action = Action::Calibrate;
    d.reference = reference_;
  } else if (cooldown_left_ > 0) {
    --cooldown_left_;
    d.action = Action::Keep;
    d.reference = reference_;
    d.drift = observed_usec / reference_ - 1.0;
  } else {
    d.reference = reference_;
    d.drift = observed_usec / reference_ - 1.0;
    if (d.drift > cfg_.drift_threshold) {
      ++drift_streak_;
      d.drift_streak = drift_streak_;
      if (drift_streak_ >= cfg_.hysteresis) {
        const bool ok = reprobe_and_map(current);
        d.action = ok ? Action::Remap : Action::Fallback;
        d.probe_failed = !ok;
        d.probe_rms_error = last_probe_.rms_rel_error;
        drift_streak_ = 0;
        reference_ = -1.0;  // re-calibrate on the next observation
        cooldown_left_ = cfg_.cooldown;
      } else {
        d.action = Action::Keep;
      }
    } else {
      drift_streak_ = 0;
      d.action = Action::Keep;
    }
  }

  obs::count(std::string("probe.decision.") + to_string(d.action));
  log_.push_back(d);
  return d;
}

bool AdaptiveController::reprobe_and_map(
    const fault::DegradedTopology& current) {
  // Each probe round draws from its own derived seed so a re-probe is a new
  // experiment, while the whole decision sequence stays a pure function of
  // the config seed.
  ProbeConfig pc = cfg_.probe;
  pc.seed = mix_seed(cfg_.probe.seed, 0x70726f6265ull,
                     static_cast<std::uint64_t>(probes_done_));
  ++probes_done_;

  const topology::DistanceMatrix truth = effective_node_distances(current);
  const ProbedDistances probed =
      probe_distances(current.machine(), truth, pc);
  last_probe_ = probed.report;
  probe_cost_usec_ += probed.report.probe_cost_usec;

  if (probed.report.failed()) {
    mapping_ = slots_;
    fallback_ = true;
    ++fallbacks_;
    return false;
  }
  Rng rng(mix_seed(pc.seed, 0x6d6170ull, 0));
  mapping_ = mapper_->checked_map(slots_, probed.distances, rng);
  fallback_ = false;
  ++remaps_;
  return true;
}

}  // namespace tarr::probe
