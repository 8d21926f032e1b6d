// tarr probe — drive the fig8 probed-remapping scenario from the shell: the
// epoch loop of src/probe/scenario.hpp (seeded multi-tenant congestion,
// noisy distance probing, the adaptive re-mapping controller), printing the
// identity / oracle / probed comparison (docs/PROBING.md).  Deterministic in
// the seeds.  --smoke is the small CI preset (explicit flags override it);
// --fail-probe forces every probe to time out, and the run must then
// complete via the identity fallback.

#include <cstdio>

#include "driver.hpp"
#include "probe/probe.hpp"

namespace tarr::driver {

int cmd_probe(const Flags& f) {
  probe::ScenarioConfig cfg;
  cfg.congestion.seed = 7;
  cfg.congestion.link_prob = 0.35;
  cfg.congestion.min_factor = 0.2;
  cfg.congestion.max_factor = 0.6;
  cfg.controller.drift_threshold = 0.03;
  cfg.controller.hysteresis = 2;
  if (f.has("--smoke")) {
    cfg.num_nodes = 16;
    cfg.tree.nodes_per_leaf = 4;
    cfg.epochs = 6;
  }
  cfg.num_nodes =
      static_cast<int>(f.num("--nodes", cfg.num_nodes, 1, 1 << 20));
  cfg.epochs = static_cast<int>(f.num("--epochs", cfg.epochs, 1, 1 << 20));
  cfg.controller.probe.noise =
      f.real("--noise", cfg.controller.probe.noise, 0.0, 0.999);
  cfg.congestion.churn = f.real("--churn", cfg.congestion.churn, 0.0, 1.0);
  cfg.controller.probe.seed = f.seed("--seed", 11);
  const bool fail_probe = f.has("--fail-probe");
  if (fail_probe) cfg.controller.probe.timeout_prob = 1.0;

  Obs obs(f, f.has("--trace") || f.has("--metrics"));
  const probe::ScenarioResult result = [&] {
    obs::Install traced(obs.sink());
    return probe::run_probed_scenario(cfg);
  }();
  obs.finish_tlog();
  std::printf("%s", result.summary().c_str());
  if (fail_probe) {
    // Probing is impossible, the run still completes, and probed degrades
    // to exactly the identity mapping.
    for (const probe::PatternSummary& p : result.patterns)
      if (p.fallbacks == 0 || p.probed_mean != p.identity_mean)
        throw Error("--fail-probe did not fall back to identity (" +
                    p.pattern + ")");
    std::printf(
        "fail-probe: all probes timed out; controller degraded to the "
        "identity mapping (graceful fallback)\n");
  }
  if (const std::string p = obs.path("--csv"); !p.empty())
    write_file(p, result.csv());
  obs.write_prof();
  obs.write_trace(/*print=*/false);
  obs.finish_tlog(/*print=*/true);
  return 0;
}

}  // namespace tarr::driver
