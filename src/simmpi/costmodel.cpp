#include "simmpi/costmodel.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "prof/profiler.hpp"

namespace tarr::simmpi {

CostModel::CostModel(const topology::Machine& m, const CostConfig& cfg)
    : machine_(&m), cfg_(cfg) {
  link_bytes_.assign(static_cast<std::size_t>(m.network().num_links()) * 2,
                     0.0);
  qpi_bytes_.assign(static_cast<std::size_t>(m.num_nodes()) * 2, 0.0);
  socket_bytes_.assign(
      static_cast<std::size_t>(m.num_nodes()) * m.shape().sockets, 0.0);
}

void CostModel::begin_stage() {
  TARR_REQUIRE(!stage_open_, "begin_stage: previous stage still open");
  stage_open_ = true;
}

double& CostModel::qpi_load(NodeId n, int dir) {
  return qpi_bytes_[static_cast<std::size_t>(n) * 2 + dir];
}

double& CostModel::socket_load(NodeId n, SocketId s) {
  return socket_bytes_[static_cast<std::size_t>(n) *
                           machine_->shape().sockets +
                       s];
}

void CostModel::add_transfer(CoreId src, CoreId dst, Bytes bytes) {
  TARR_REQUIRE(stage_open_, "add_transfer: no open stage");
  TARR_REQUIRE(src != dst, "add_transfer: src == dst (use local_copy_cost)");
  TARR_REQUIRE(bytes >= 0, "add_transfer: negative byte count");
  pending_.push_back(Pending{src, dst, bytes});
  if (!cfg_.model_contention) return;

  const auto& m = *machine_;
  const NodeId na = m.node_of_core(src);
  const NodeId nb = m.node_of_core(dst);
  const double b = static_cast<double>(bytes);
  if (na == nb) {
    const SocketId sa = m.socket_of_core(src);
    const SocketId sb = m.socket_of_core(dst);
    auto touch_socket = [&](SocketId s, double load) {
      double& slot = socket_load(na, s);
      if (slot == 0.0)
        touched_sockets_.push_back(na * m.shape().sockets + s);
      slot += load;
    };
    if (sa == sb) {
      touch_socket(sa, b);  // full copy served by one memory subsystem
    } else {
      touch_socket(sa, 0.5 * b);  // read side
      touch_socket(sb, 0.5 * b);  // write side
      const int dir = sa < sb ? 0 : 1;
      if (qpi_load(na, dir) == 0.0) touched_qpi_.push_back(na * 2 + dir);
      qpi_load(na, dir) += b;
    }
    return;
  }
  m.router().walk(na, nb, [&](topology::Hop h) {
    const int idx = 2 * h.link + h.dir;
    if (link_bytes_[idx] == 0.0) touched_links_.push_back(idx);
    link_bytes_[idx] += b;
  });
}

Usec CostModel::finish_stage() {
  TARR_REQUIRE(stage_open_, "finish_stage: no open stage");
  const auto& m = *machine_;
  const auto& net = m.network();

  if (capture_details_) {
    // Reuse the detail vectors' capacity across stages (clear, don't
    // reassign a fresh StageDetail): with capture on, a long run would
    // otherwise reallocate all three vectors every single stage.
    detail_.transfers.clear();
    detail_.link_loads.clear();
    detail_.qpi_loads.clear();
    detail_.transfers.reserve(pending_.size());
  }

  Usec stage = 0.0;
  double priced_bytes = 0.0;
  for (const Pending& t : pending_) {
    priced_bytes += static_cast<double>(t.bytes);
    const NodeId na = m.node_of_core(t.src);
    const NodeId nb = m.node_of_core(t.dst);
    const double own = static_cast<double>(t.bytes);
    Usec cost;
    Usec uncontended = 0.0;  ///< cost at contention factor 1.0
    trace::Channel channel = trace::Channel::Network;
    double contention = 1.0;  ///< slowdown over the uncontended floor
    if (na == nb) {
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
          bw_time = std::max(bw_time,
                             socket_load(na, sa) * cfg_.beta_mem_socket);
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
              std::max(socket_load(na, sa), socket_load(na, sb));
          const double qpi = qpi_load(na, sa < sb ? 0 : 1);
          bw_time = std::max({bw_time, mem * cfg_.beta_mem_socket,
                              qpi * cfg_.beta_qpi});
        }
        if (floor > 0.0) contention = bw_time / floor;
        channel = trace::Channel::CrossSocket;
        uncontended = cfg_.alpha_shm_cross + floor;
        cost = cfg_.alpha_shm_cross + bw_time;
      }
    } else {
      double bottleneck = own;
      const int hops = m.router().walk(na, nb, [&](topology::Hop h) {
        if (cfg_.model_contention)
          bottleneck = std::max(bottleneck,
                                link_bytes_[2 * h.link + h.dir] /
                                    net.link(h.link).capacity);
      });
      if (own > 0.0) contention = bottleneck / own;
      const Usec alpha =
          cfg_.alpha_net + cfg_.alpha_hop * static_cast<double>(hops);
      uncontended = alpha + own * cfg_.beta_net;
      cost = alpha + bottleneck * cfg_.beta_net;
    }
    if (capture_details_) {
      detail_.transfers.push_back(TransferRecord{
          t.src, t.dst, t.bytes, cost, channel, contention, uncontended});
    }
    stage = std::max(stage, cost);
  }

  if (prof::Profiler* p = obs::ambient().prof) {
    p->count("cost.stages_priced", 1.0);
    p->count("cost.transfers_priced", static_cast<double>(pending_.size()));
    p->count("cost.bytes_priced", priced_bytes);
  }

  last_stats_ = StageStats{};
  last_stats_.transfers = static_cast<int>(pending_.size());
  for (int idx : touched_links_) {
    const auto& link = net.link(idx / 2);
    last_stats_.max_link_bytes = std::max(
        last_stats_.max_link_bytes, link_bytes_[idx] / link.capacity);
  }
  for (int idx : touched_qpi_)
    last_stats_.max_qpi_bytes =
        std::max(last_stats_.max_qpi_bytes, qpi_bytes_[idx]);

  if (capture_details_) {
    // Snapshot the directed resource loads before the touched-list reset
    // wipes them.  Touched-list order is the (deterministic) first-touch
    // order of the stage's transfers.
    detail_.link_loads.reserve(touched_links_.size());
    for (int idx : touched_links_) {
      detail_.link_loads.push_back(LinkLoad{
          idx / 2, idx % 2, link_bytes_[idx],
          link_bytes_[idx] / net.link(idx / 2).capacity});
    }
    detail_.qpi_loads.reserve(touched_qpi_.size());
    for (int idx : touched_qpi_)
      detail_.qpi_loads.push_back(QpiLoad{idx / 2, idx % 2, qpi_bytes_[idx]});
  }

  pending_.clear();
  for (int idx : touched_links_) link_bytes_[idx] = 0.0;
  for (int idx : touched_qpi_) qpi_bytes_[idx] = 0.0;
  for (int idx : touched_sockets_) socket_bytes_[idx] = 0.0;
  touched_links_.clear();
  touched_qpi_.clear();
  touched_sockets_.clear();
  // The touched-list reset must leave no residual load behind — a leak here
  // silently inflates contention in every later stage.  Full sweep of all
  // three load arrays, so only in TARR_SLOW_CHECKS builds.
  TARR_CHECK_SLOW(
      std::all_of(link_bytes_.begin(), link_bytes_.end(),
                  [](double b) { return b == 0.0; }) &&
          std::all_of(qpi_bytes_.begin(), qpi_bytes_.end(),
                      [](double b) { return b == 0.0; }) &&
          std::all_of(socket_bytes_.begin(), socket_bytes_.end(),
                      [](double b) { return b == 0.0; }),
      "finish_stage: residual load after touched-list reset");
  stage_open_ = false;
  return stage;
}

Usec CostModel::local_copy_cost(Bytes bytes) const {
  if (bytes <= 0) return 0.0;
  return cfg_.alpha_mem + static_cast<double>(bytes) * cfg_.beta_mem;
}

}  // namespace tarr::simmpi
