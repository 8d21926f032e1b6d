#include "probe/congestion.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "topology/routing.hpp"

namespace tarr::probe {

void validate(const CongestionConfig& cfg) {
  TARR_REQUIRE(cfg.link_prob >= 0.0 && cfg.link_prob <= 1.0,
               "congestion: link_prob must be in [0, 1]");
  TARR_REQUIRE(cfg.min_factor > 0.0 && cfg.min_factor <= 1.0,
               "congestion: min_factor must be in (0, 1]");
  TARR_REQUIRE(cfg.max_factor >= cfg.min_factor && cfg.max_factor <= 1.0,
               "congestion: max_factor must be in [min_factor, 1]");
  TARR_REQUIRE(cfg.churn >= 0.0 && cfg.churn <= 1.0,
               "congestion: churn must be in [0, 1]");
}

fault::FaultMask congestion_mask(const topology::SwitchGraph& g,
                                 const CongestionConfig& cfg, int epoch) {
  validate(cfg);
  TARR_REQUIRE(epoch >= 0, "congestion_mask: epoch must be >= 0");

  // Era = index of the most recent resample at or before `epoch`.  Epoch 0
  // always samples fresh; later boundaries flip a seeded coin.  Walking the
  // boundaries keeps the function pure in (cfg, epoch) — churn behavior
  // does not depend on which epochs the caller happened to query before.
  int era = 0;
  for (int e = 1; e <= epoch; ++e) {
    Rng coin(mix_seed(cfg.seed, 0x636f696eull, static_cast<std::uint64_t>(e)));
    if (coin.next_double() < cfg.churn) era = e;
  }

  fault::FaultMask mask;
  for (LinkId l = 0; l < g.num_links(); ++l) {
    const auto& ln = g.link(l);
    const bool touches_host =
        g.vertex(ln.a).kind == topology::VertexKind::Host ||
        g.vertex(ln.b).kind == topology::VertexKind::Host;
    if (touches_host) continue;
    Rng rng(mix_seed(cfg.seed, static_cast<std::uint64_t>(era) + 1,
                     static_cast<std::uint64_t>(l)));
    if (rng.next_double() >= cfg.link_prob) continue;
    const double factor =
        cfg.min_factor + (cfg.max_factor - cfg.min_factor) * rng.next_double();
    mask.degrade_link_factor(l, factor);
  }
  return mask;
}

namespace {

/// Per-link slowdown weights of a congestion-degraded graph.  Hard failures
/// renumber link ids, which would break the pristine/degraded pairing — the
/// congestion model never produces them, and we reject them loudly.
std::vector<double> link_weights(const fault::DegradedTopology& topo) {
  TARR_REQUIRE(topo.mask().num_failures() == 0,
               "effective distances: mask must be congestion-only "
               "(degradations, no hard failures)");
  const topology::SwitchGraph& pristine = topo.base().network();
  const topology::SwitchGraph& degraded = topo.machine().network();
  TARR_REQUIRE(pristine.num_links() == degraded.num_links(),
               "effective distances: link sets diverged");
  std::vector<double> w(static_cast<std::size_t>(pristine.num_links()), 1.0);
  for (LinkId l = 0; l < pristine.num_links(); ++l)
    w[static_cast<std::size_t>(l)] =
        static_cast<double>(pristine.link(l).capacity) /
        static_cast<double>(degraded.link(l).capacity);
  return w;
}

}  // namespace

topology::DistanceMatrix effective_node_distances(
    const fault::DegradedTopology& topo) {
  const std::vector<double> w = link_weights(topo);
  const topology::Machine& m = topo.machine();
  const topology::Router& router = m.router();
  topology::DistanceMatrix d(m.num_nodes());
  for (NodeId a = 0; a < m.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < m.num_nodes(); ++b) {
      double hops = 0.0;
      router.walk(a, b, [&](topology::Hop h) {
        hops += w[static_cast<std::size_t>(h.link)];
      });
      d.set(a, b, topology::kInterNodeBase +
                      topology::kPerHop * static_cast<float>(hops));
    }
  }
  return d;
}

}  // namespace tarr::probe
