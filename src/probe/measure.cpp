#include "probe/measure.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "prof/profiler.hpp"

namespace tarr::probe {

namespace {

/// Spike severity: an outlier sample is multiplied by this factor.
constexpr double kOutlierScale = 4.0;
/// Simulated wait before retry i is kBackoffBaseUsec * kBackoffFactor^i;
/// a timed-out attempt itself costs one kBackoffBaseUsec detection window.
constexpr double kBackoffBaseUsec = 50.0;
constexpr double kBackoffFactor = 2.0;
/// Unresolved pairs are priced at max(resolved estimate) * this margin.
constexpr double kWorstCaseMargin = 2.0;
/// Probing *fails* (ProbeReport::failed()) when fewer than this fraction of
/// pairs resolve — the adaptive controller then falls back to the identity
/// mapping instead of trusting a matrix made of guesses.
constexpr double kMinResolvedFraction = 0.5;

}  // namespace

void validate(const ProbeConfig& cfg) {
  TARR_REQUIRE(cfg.samples_per_pair >= 1,
               "probe: samples_per_pair must be >= 1");
  TARR_REQUIRE(cfg.noise >= 0.0 && cfg.noise < 1.0,
               "probe: noise must be in [0, 1)");
  TARR_REQUIRE(cfg.outlier_prob >= 0.0 && cfg.outlier_prob <= 1.0,
               "probe: outlier_prob must be in [0, 1]");
  TARR_REQUIRE(cfg.timeout_prob >= 0.0 && cfg.timeout_prob <= 1.0,
               "probe: timeout_prob must be in [0, 1]");
  TARR_REQUIRE(cfg.max_attempts >= 1, "probe: max_attempts must be >= 1");
}

bool ProbeReport::failed() const {
  if (pairs == 0) return false;  // single-node "cluster": nothing to probe
  return static_cast<double>(resolved_pairs) <
         kMinResolvedFraction * static_cast<double>(pairs);
}

ProbedDistances probe_distances(const topology::Machine& m,
                                const topology::DistanceMatrix& truth,
                                const ProbeConfig& cfg,
                                trace::TraceSink* sink) {
  validate(cfg);
  TARR_REQUIRE(truth.size() == m.num_nodes(),
               "probe_distances: truth matrix size does not match machine");
  prof::ProfScope pscope("probe.measure");
  WallTimer wall;

  const int nodes = m.num_nodes();
  ProbeReport rep;
  rep.nodes = nodes;
  rep.pairs = nodes * (nodes - 1) / 2;
  rep.pair_stats.reserve(static_cast<std::size_t>(rep.pairs));

  // Pass 1: sample every pair.  Each (pair, sample, attempt) draws from its
  // own mix_seed-derived stream, so the outcome is independent of probing
  // order and bit-stable across runs.
  std::vector<float> samples;
  float max_estimate = 0.0f;
  double err_sq_sum = 0.0;
  for (NodeId a = 0; a < nodes; ++a) {
    for (NodeId b = a + 1; b < nodes; ++b) {
      PairProbe pp;
      pp.a = a;
      pp.b = b;
      pp.truth = truth.at(a, b);
      const bool unreachable = std::isinf(pp.truth);
      const std::uint64_t pair_seed =
          mix_seed(cfg.seed, static_cast<std::uint64_t>(a),
                   static_cast<std::uint64_t>(b));
      samples.clear();
      for (int s = 0; s < cfg.samples_per_pair; ++s) {
        Rng rng(mix_seed(pair_seed, static_cast<std::uint64_t>(s), 0));
        bool landed = false;
        for (int attempt = 0; attempt < cfg.max_attempts; ++attempt) {
          ++rep.measurements;
          const bool timeout =
              unreachable || rng.next_double() < cfg.timeout_prob;
          if (!timeout) {
            double v = static_cast<double>(pp.truth) *
                       (1.0 + cfg.noise * (2.0 * rng.next_double() - 1.0));
            if (rng.next_double() < cfg.outlier_prob) v *= kOutlierScale;
            samples.push_back(static_cast<float>(v));
            rep.probe_cost_usec += v;
            landed = true;
            break;
          }
          ++pp.timeouts;
          ++rep.timeouts;
          // The timed-out attempt itself costs one detection window.
          rep.probe_cost_usec += kBackoffBaseUsec;
          if (attempt + 1 < cfg.max_attempts) {
            ++pp.retries;
            ++rep.retries;
            rep.probe_cost_usec +=
                kBackoffBaseUsec * std::pow(kBackoffFactor, attempt);
          }
        }
        (void)landed;
      }
      pp.samples = static_cast<int>(samples.size());
      if (!samples.empty()) {
        // Median-of-k outlier rejection (even k: lower median, so a half-
        // spiked sample set still lands on a clean sample).
        std::sort(samples.begin(), samples.end());
        pp.estimate = samples[(samples.size() - 1) / 2];
        pp.resolved = true;
        ++rep.resolved_pairs;
        max_estimate = std::max(max_estimate, pp.estimate);
        const double rel =
            std::abs(static_cast<double>(pp.estimate) - pp.truth) / pp.truth;
        err_sq_sum += rel * rel;
        rep.max_rel_error = std::max(rep.max_rel_error, rel);
      }
      rep.pair_stats.push_back(pp);
    }
  }
  if (rep.resolved_pairs > 0)
    rep.rms_rel_error = std::sqrt(err_sq_sum / rep.resolved_pairs);

  // Conservative fill for the unresolved remainder.  With nothing resolved
  // at all there is no empirical anchor; fall back to the distance scale's
  // deepest plausible route so the matrix stays finite (the caller will see
  // failed() and distrust it anyway).
  rep.worst_case_distance =
      max_estimate > 0.0f
          ? max_estimate * static_cast<float>(kWorstCaseMargin)
          : topology::kInterNodeBase + topology::kPerHop * 16.0f;

  // Pass 2: the node matrix holds the pair estimates; the intra-node
  // template stays exact (hwloc is local).
  topology::DistanceMatrix node(nodes);
  for (const PairProbe& pp : rep.pair_stats)
    node.set(pp.a, pp.b, pp.resolved ? pp.estimate : rep.worst_case_distance);

  if (sink != nullptr) {
    sink->add_count("probe.measurements",
                    static_cast<double>(rep.measurements));
    sink->add_count("probe.timeouts", static_cast<double>(rep.timeouts));
    sink->add_count("probe.retries", static_cast<double>(rep.retries));
    sink->add_count("probe.unresolved_pairs",
                    static_cast<double>(rep.unresolved_pairs()));
    sink->add_count("probe.cost_usec", rep.probe_cost_usec);
    // Per-pair relative residuals feed a distribution: the probe summary
    // already reports rms/max, but whether re-mapping on probed distances
    // pays hinges on the residual *tail* (p99), which only a histogram
    // preserves.
    for (const PairProbe& pp : rep.pair_stats) {
      if (!pp.resolved || pp.truth <= 0.0f) continue;
      const double rel = std::fabs(static_cast<double>(pp.estimate) -
                                   static_cast<double>(pp.truth)) /
                         static_cast<double>(pp.truth);
      sink->observe("probe.pair_rel_error", rel);
    }
    sink->on_wall_span(trace::WallSpan{"probe", wall.seconds()});
  }
  if (prof::Profiler* p = obs::ambient().prof) {
    p->count("probe.pairs", static_cast<double>(rep.pairs));
    p->count("probe.measurements", static_cast<double>(rep.measurements));
    p->count("probe.retries", static_cast<double>(rep.retries));
  }
  return ProbedDistances{
      topology::DistanceMatrix(
          node, topology::extract_intranode_distances(m)),
      std::move(rep)};
}

}  // namespace tarr::probe
