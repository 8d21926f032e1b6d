#include "simmpi/costmodel.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::simmpi {

namespace {

const CostConfig& checked(const CostConfig& cfg) {
  static constexpr struct {
    const char* name;
    double CostConfig::*field;
  } kChannelParams[] = {
      {"alpha_shm_socket", &CostConfig::alpha_shm_socket},
      {"alpha_shm_cross", &CostConfig::alpha_shm_cross},
      {"alpha_shm_complex", &CostConfig::alpha_shm_complex},
      {"beta_shm_complex_pair", &CostConfig::beta_shm_complex_pair},
      {"beta_shm_pair", &CostConfig::beta_shm_pair},
      {"beta_mem_socket", &CostConfig::beta_mem_socket},
      {"beta_qpi", &CostConfig::beta_qpi},
      {"alpha_net", &CostConfig::alpha_net},
      {"alpha_hop", &CostConfig::alpha_hop},
      {"beta_net", &CostConfig::beta_net},
      {"alpha_mem", &CostConfig::alpha_mem},
      {"beta_mem", &CostConfig::beta_mem},
  };
  for (const auto& p : kChannelParams) {
    const double v = cfg.*p.field;
    if (!std::isfinite(v) || v < 0.0)
      throw Error(std::string("CostConfig: ") + p.name +
                  " must be finite and >= 0");
  }
  return cfg;
}

}  // namespace

CostModel::CostModel(const topology::Machine& m, const CostConfig& cfg)
    : machine_(&m),
      cfg_(checked(cfg)),
      last_pair_from_(static_cast<std::size_t>(m.num_nodes()), -1),
      links_(static_cast<std::size_t>(m.network().num_links()) * 2),
      qpi_(static_cast<std::size_t>(m.num_nodes()) * 2),
      sockets_(static_cast<std::size_t>(m.num_nodes()) * m.shape().sockets) {}

void CostModel::Loads::clear() {
  for (int idx : touched) {
    bytes[idx] = 0.0;
    marked[idx] = 0;
  }
  touched.clear();
}

bool CostModel::Loads::is_clear() const {
  return touched.empty() &&
         std::all_of(bytes.begin(), bytes.end(),
                     [](double b) { return b == 0.0; }) &&
         std::all_of(marked.begin(), marked.end(),
                     [](unsigned char k) { return k == 0; });
}

void CostModel::begin_stage() {
  TARR_REQUIRE(!stage_open_, "begin_stage: previous stage still open");
  stage_open_ = true;
}

void CostModel::add_transfer(CoreId src, CoreId dst, Bytes bytes) {
  TARR_REQUIRE(stage_open_, "add_transfer: no open stage");
  TARR_REQUIRE(src != dst, "add_transfer: src == dst (use local_copy_cost)");
  TARR_REQUIRE(bytes >= 0, "add_transfer: negative byte count");
  const auto& m = *machine_;
  const NodeId na = m.node_of_core(src);
  const NodeId nb = m.node_of_core(dst);
  const double b = static_cast<double>(bytes);
  if (na != nb) {
    int& slot = last_pair_from_[na];
    if (slot < 0 || pairs_[slot].dst != nb) {
      // A split pair throws where its route is first needed.
      if (cfg_.model_contention && !m.router().reachable(na, nb))
        throw topology::PartitionedError(m.router().partition());
      slot = static_cast<int>(pairs_.size());
      pairs_.push_back(NodePair{na, nb});
    }
    NodePair& q = pairs_[slot];
    q.bytes += b;
    q.largest = std::max(q.largest, b);
    ++stage_transfers_;
    stage_bytes_ += b;
    if (capture_details_) pending_.push_back(Pending{src, dst, bytes, na, slot});
    return;
  }
  ++stage_transfers_;
  stage_bytes_ += b;
  pending_.push_back(Pending{src, dst, bytes, na, -1});
  if (!cfg_.model_contention) return;

  const SocketId sa = m.socket_of_core(src);
  const SocketId sb = m.socket_of_core(dst);
  if (sa == sb) {
    sockets_.add(socket_slot(na, sa), b);  // full copy, one memory subsystem
  } else {
    sockets_.add(socket_slot(na, sa), 0.5 * b);  // read side
    sockets_.add(socket_slot(na, sb), 0.5 * b);  // write side
    qpi_.add(na * 2 + (sa < sb ? 0 : 1), b);
  }
}

CostModel::NetworkPrice CostModel::network_price(const NodePair& q,
                                                 double own) const {
  const double bottleneck = std::max(own, q.peak);
  const Usec alpha =
      cfg_.alpha_net + cfg_.alpha_hop * static_cast<double>(q.hops);
  return NetworkPrice{alpha + bottleneck * cfg_.beta_net,
                      alpha + own * cfg_.beta_net,
                      own > 0.0 ? bottleneck / own : 1.0};
}

Usec CostModel::finish_stage() {
  TARR_REQUIRE(stage_open_, "finish_stage: no open stage");
  const auto& m = *machine_;
  const auto& net = m.network();

  // One walk per node pair, in first-submission order, lists its route's
  // directed links; the pairs then load their routes in that order and read
  // each route once every load on it is final.
  for (NodePair& q : pairs_) {
    q.first = static_cast<int>(route_.size());
    q.hops = m.router().walk(q.src, q.dst, [&](topology::Hop h) {
      route_.push_back(2 * h.link + h.dir);
    });
  }
  if (cfg_.model_contention) {
    for (const NodePair& q : pairs_)
      for (int k = q.first; k < q.first + q.hops; ++k)
        links_.add(route_[k], q.bytes);
    for (NodePair& q : pairs_)
      for (int k = q.first; k < q.first + q.hops; ++k)
        q.peak = std::max(q.peak, links_.bytes[route_[k]] /
                                      net.link(route_[k] / 2).capacity);
  }

  if (capture_details_) {
    // Reuse the detail vectors' capacity across stages (clear, don't
    // reassign a fresh StageDetail): with capture on, a long run would
    // otherwise reallocate both vectors every single stage.
    detail_.transfers.clear();
    detail_.loads.clear();
    detail_.transfers.reserve(pending_.size());
  }

  // The stage costs its slowest transfer; a pair's slowest is its largest.
  Usec stage = 0.0;
  for (const NodePair& q : pairs_)
    stage = std::max(stage, network_price(q, q.largest).cost);
  for (const Pending& t : pending_) {
    const double own = static_cast<double>(t.bytes);
    Usec cost;
    Usec uncontended = 0.0;  ///< cost at contention factor 1.0
    trace::Channel channel = trace::Channel::Network;
    double contention = 1.0;  ///< slowdown over the uncontended floor
    if (t.pair < 0) {
      const SocketId sa = m.socket_of_core(t.src);
      const SocketId sb = m.socket_of_core(t.dst);
      // Per-pair floor; contention can only slow a transfer down from it.
      double bw_time = own * cfg_.beta_shm_pair;
      if (sa == sb) {
        const bool same_complex =
            m.complex_of_core(t.src) == m.complex_of_core(t.dst);
        if (same_complex) bw_time = own * cfg_.beta_shm_complex_pair;
        const double floor = bw_time;
        if (cfg_.model_contention) {
          const double load = sockets_.bytes[socket_slot(t.node, sa)];
          bw_time = std::max(bw_time, load * cfg_.beta_mem_socket);
        }
        if (floor > 0.0) contention = bw_time / floor;
        channel = same_complex ? trace::Channel::SameComplex
                               : trace::Channel::SameSocket;
        const Usec alpha =
            same_complex ? cfg_.alpha_shm_complex : cfg_.alpha_shm_socket;
        uncontended = alpha + floor;
        cost = alpha + bw_time;
      } else {
        const double floor = bw_time;
        if (cfg_.model_contention) {
          const double mem =
              std::max(sockets_.bytes[socket_slot(t.node, sa)],
                       sockets_.bytes[socket_slot(t.node, sb)]);
          const double qpi = qpi_.bytes[t.node * 2 + (sa < sb ? 0 : 1)];
          bw_time = std::max({bw_time, mem * cfg_.beta_mem_socket,
                              qpi * cfg_.beta_qpi});
        }
        if (floor > 0.0) contention = bw_time / floor;
        channel = trace::Channel::CrossSocket;
        uncontended = cfg_.alpha_shm_cross + floor;
        cost = cfg_.alpha_shm_cross + bw_time;
      }
      stage = std::max(stage, cost);
    } else {
      // Only under capture: its pair already counted in the stage cost.
      const NetworkPrice price = network_price(pairs_[t.pair], own);
      cost = price.cost;
      uncontended = price.uncontended;
      contention = price.contention;
    }
    if (capture_details_) {
      detail_.transfers.push_back(TransferRecord{
          t.src, t.dst, t.bytes, cost, channel, contention, uncontended});
    }
  }

  if (prof::Profiler* p = obs::ambient().prof) {
    p->count("cost.stages_priced", 1.0);
    p->count("cost.transfers_priced", static_cast<double>(stage_transfers_));
    p->count("cost.routes_walked", static_cast<double>(pairs_.size()));
    p->count("cost.bytes_priced", stage_bytes_);
  }

  if (capture_details_) {
    // Snapshot the directed resource loads before the reset wipes them.
    // Touched-list order is the (deterministic) first-touch order of the
    // stage's transfers.
    detail_.loads.reserve(links_.touched.size() + qpi_.touched.size());
    for (int idx : links_.touched)
      detail_.loads.push_back({false, idx / 2, idx % 2, links_.bytes[idx]});
    for (int idx : qpi_.touched)
      detail_.loads.push_back({true, idx / 2, idx % 2, qpi_.bytes[idx]});
  }

  pending_.clear();
  stage_transfers_ = 0;
  stage_bytes_ = 0.0;
  for (const NodePair& q : pairs_) last_pair_from_[q.src] = -1;
  pairs_.clear();
  route_.clear();
  links_.clear();
  qpi_.clear();
  sockets_.clear();
  // The reset must leave no per-stage state behind — a residual load
  // silently inflates contention in every later stage, and a stale pair
  // slot would sum bytes into a pair of the last stage.  Full sweep of
  // every array, so only in TARR_SLOW_CHECKS builds.
  TARR_CHECK_SLOW(
      links_.is_clear() && qpi_.is_clear() && sockets_.is_clear() &&
          pairs_.empty() && route_.empty() &&
          std::all_of(last_pair_from_.begin(), last_pair_from_.end(),
                      [](int slot) { return slot == -1; }),
      "finish_stage: per-stage state left after the reset");
  stage_open_ = false;
  return stage;
}

Usec CostModel::local_copy_cost(Bytes bytes) const {
  if (bytes <= 0) return 0.0;
  return cfg_.alpha_mem + static_cast<double>(bytes) * cfg_.beta_mem;
}

}  // namespace tarr::simmpi
