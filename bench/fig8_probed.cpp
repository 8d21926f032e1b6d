// Fig 8 (extension): probed re-mapping under uncertain, churning topologies.
//
// The paper's pipeline assumes exact distances and a static fabric.  This
// harness drops both assumptions and asks what topology awareness is still
// worth when distances must be *probed* (noisy pairwise latency samples)
// and the fabric *churns* (seeded multi-tenant background congestion):
//
//   identity — the resource manager's block layout, never reordered;
//   oracle   — RMH re-run every epoch on exact effective distances (free
//              perfect knowledge: the ceiling);
//   probed   — the tarr::probe adaptive controller (noisy probes, drift
//              detection with hysteresis, identity fallback).
//
// Swept over probe noise levels at fixed churn, on the ML-style ring
// allreduce and a rotation alltoall.  A final run forces total probe
// failure (timeout_prob = 1) and must complete via the identity fallback.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/fixtures.hpp"
#include "common/table.hpp"
#include "probe/probe.hpp"

namespace {

using namespace tarr;
using namespace tarr::bench;

probe::ScenarioConfig base_config(int nodes, int epochs) {
  probe::ScenarioConfig cfg;
  cfg.num_nodes = nodes;
  cfg.epochs = epochs;
  cfg.congestion.seed = 7;
  cfg.congestion.link_prob = 0.35;
  cfg.congestion.min_factor = 0.2;
  cfg.congestion.max_factor = 0.6;
  cfg.congestion.churn = 0.5;
  cfg.controller.probe.seed = 11;
  cfg.controller.drift_threshold = 0.03;
  cfg.controller.hysteresis = 2;
  return cfg;
}

std::string pct(double v) { return tarr::TextTable::num(v, 2); }

}  // namespace

int main() {
  const int nodes = 32;
  const int epochs = 10;
  const std::vector<double> noise_levels = {0.02, 0.2, 0.5};

  SnapshotEmitter snap("fig8_probed");
  snap.set_meta("nodes", std::to_string(nodes));
  snap.set_meta("epochs", std::to_string(epochs));

  std::printf(
      "Fig 8 (extension) — probed re-mapping vs oracle vs identity\n"
      "%d nodes, %d epochs, churn %.2f, ring-allreduce + alltoall\n\n",
      nodes, epochs, 0.5);

  tarr::TextTable t;
  t.set_header({"noise", "pattern", "identity(us)", "oracle(us)", "probed(us)",
                "gain%", "oracle_gap%", "remaps", "fallbacks"});

  bool ok = true;
  for (std::size_t ni = 0; ni < noise_levels.size(); ++ni) {
    probe::ScenarioConfig cfg = base_config(nodes, epochs);
    cfg.controller.probe.noise = noise_levels[ni];
    cfg.controller.probe.outlier_prob = 0.1;
    // Decorrelate the noise draws across sweep points: with a shared seed
    // the same uniforms are merely rescaled, so relative orderings within
    // equal-truth distance groups would never change and every noise level
    // would produce the identical mapping.
    cfg.controller.probe.seed = 11 + 977 * static_cast<std::uint64_t>(ni);
    const probe::ScenarioResult res = probe::run_probed_scenario(cfg);
    for (const probe::PatternSummary& p : res.patterns) {
      t.add_row({pct(noise_levels[ni]), p.pattern, pct(p.identity_mean),
                 pct(p.oracle_mean), pct(p.probed_mean),
                 pct(p.probed_gain_pct()), pct(p.oracle_gap_pct()),
                 std::to_string(p.remaps), std::to_string(p.fallbacks)});
      const std::string tag =
          p.pattern + "_noise" + tarr::TextTable::num(noise_levels[ni], 2);
      // Gate the headline: what probing buys over never reordering.  The
      // oracle gap is a trend (it shrinks as noise does; asserted below for
      // the ring, not gated per-cell).
      snap.add_metric("gain_pct_" + tag, p.probed_gain_pct(), "percent",
                      /*higher_is_better=*/true);
      snap.add_metric("oracle_gap_pct_" + tag, p.oracle_gap_pct(), "percent",
                      /*higher_is_better=*/false, /*gate=*/false);
      snap.add_metric("probed_usec_" + tag, p.probed_mean, "usec",
                      /*higher_is_better=*/false);
      // The robustness claim: probed beats identity on the ring workload
      // (the oracle gap per noise level is tracked as a trend metric).
      if (p.pattern == "ring-allreduce" && p.probed_gain_pct() <= 0.0) {
        std::fprintf(stderr,
                     "FAIL: probed did not beat identity at noise %.2f\n",
                     noise_levels[ni]);
        ok = false;
      }
    }
  }

  // Forced probe failure: every measurement times out, the controller must
  // fall back to identity and the scenario must still complete.
  probe::ScenarioConfig fail_cfg = base_config(nodes, epochs);
  fail_cfg.controller.probe.timeout_prob = 1.0;
  const probe::ScenarioResult fail_res = probe::run_probed_scenario(fail_cfg);
  int fallbacks = 0;
  for (const probe::PatternSummary& p : fail_res.patterns) {
    fallbacks += p.fallbacks;
    t.add_row({"FAIL-PROBE", p.pattern, pct(p.identity_mean),
               pct(p.oracle_mean), pct(p.probed_mean),
               pct(p.probed_gain_pct()), pct(p.oracle_gap_pct()),
               std::to_string(p.remaps), std::to_string(p.fallbacks)});
    // With probing dead, probed degrades exactly to identity.
    if (p.probed_mean != p.identity_mean) {
      std::fprintf(stderr,
                   "FAIL: fallback did not degrade to identity (%s)\n",
                   p.pattern.c_str());
      ok = false;
    }
    if (p.fallbacks == 0) {
      std::fprintf(stderr, "FAIL: forced probe failure took no fallback\n");
      ok = false;
    }
  }
  snap.add_metric("fail_probe_fallbacks", fallbacks, "count",
                  /*higher_is_better=*/false, /*gate=*/false);

  std::printf("%s", t.render().c_str());
  std::printf(
      "\nFAIL-PROBE row: timeout_prob = 1 — probing is impossible; the\n"
      "controller degrades to the identity mapping instead of failing.\n");

  snap.dump();
  return ok ? 0 : 1;
}
