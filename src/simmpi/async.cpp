#include "simmpi/async.hpp"

#include <algorithm>

#include "common/bits.hpp"
#include "common/error.hpp"

namespace tarr::simmpi {

AsyncEngine::AsyncEngine(const Communicator& comm, const CostConfig& cfg,
                         Usec send_overhead)
    : comm_(&comm),
      cfg_(cfg),
      send_overhead_(send_overhead),
      clock_(comm.size(), 0.0) {
  TARR_REQUIRE(send_overhead >= 0.0,
               "AsyncEngine: negative send overhead");
}

void AsyncEngine::compute(Rank rank, Usec duration) {
  TARR_REQUIRE(rank >= 0 && rank < comm_->size(),
               "compute: rank out of range");
  TARR_REQUIRE(duration >= 0.0, "compute: negative duration");
  clock_[rank] += duration;
}

Usec AsyncEngine::channel_cost(CoreId src, CoreId dst, Bytes bytes) const {
  const auto& m = comm_->machine();
  const NodeId na = m.node_of_core(src);
  const NodeId nb = m.node_of_core(dst);
  const double b = static_cast<double>(bytes);
  if (na == nb) {
    const SocketId sa = m.socket_of_core(src);
    const SocketId sb = m.socket_of_core(dst);
    if (sa == sb) {
      const bool same_complex =
          m.complex_of_core(src) == m.complex_of_core(dst);
      return (same_complex ? cfg_.alpha_shm_complex : cfg_.alpha_shm_socket) +
             b * (same_complex ? cfg_.beta_shm_complex_pair
                               : cfg_.beta_shm_pair);
    }
    return cfg_.alpha_shm_cross + b * cfg_.beta_shm_pair;
  }
  const int hops = m.router().hops(na, nb);
  return cfg_.alpha_net + cfg_.alpha_hop * hops + b * cfg_.beta_net;
}

Usec AsyncEngine::isend(Rank src, Rank dst, Bytes bytes) {
  TARR_REQUIRE(src >= 0 && src < comm_->size() && dst >= 0 &&
                   dst < comm_->size(),
               "isend: rank out of range");
  TARR_REQUIRE(src != dst, "isend: src == dst");
  TARR_REQUIRE(bytes >= 0, "isend: negative size");

  // The sender serializes its own injections: it is busy for the overhead
  // plus the serialization of the payload at the channel rate.
  const Usec cost = channel_cost(comm_->core_of(src), comm_->core_of(dst),
                                 bytes);
  const Usec depart = clock_[src];
  clock_[src] = depart + send_overhead_ +
                static_cast<double>(bytes) *
                    (comm_->node_of(src) == comm_->node_of(dst)
                         ? cfg_.beta_shm_pair
                         : cfg_.beta_net);
  ++messages_;
  return depart + cost;
}

void AsyncEngine::recv(Rank rank, Usec arrival) {
  TARR_REQUIRE(rank >= 0 && rank < comm_->size(),
               "recv: rank out of range");
  clock_[rank] = std::max(clock_[rank], arrival);
}

Usec AsyncEngine::p2p(Rank src, Rank dst, Bytes bytes) {
  const Usec arrive = isend(src, dst, bytes);
  recv(dst, arrive);
  return arrive;
}

Usec AsyncEngine::clock(Rank rank) const {
  TARR_REQUIRE(rank >= 0 && rank < comm_->size(),
               "clock: rank out of range");
  return clock_[rank];
}

Usec AsyncEngine::makespan() const {
  return *std::max_element(clock_.begin(), clock_.end());
}

Usec run_allgather_ring_async(AsyncEngine& eng, Bytes msg) {
  const int p = eng.comm().size();
  const Usec before = eng.makespan();
  if (p < 2) return 0.0;
  // Each rank forwards the block it last received.  All of a step's sends
  // depart based on pre-step clocks (they carry data received in EARLIER
  // steps); the receives then advance the clocks for the next step.  True
  // pipelining falls out of the per-rank clocks.
  std::vector<Usec> arrival(p);
  for (int s = 0; s < p - 1; ++s) {
    for (Rank j = 0; j < p; ++j) arrival[(j + 1) % p] = eng.isend(j, (j + 1) % p, msg);
    for (Rank j = 0; j < p; ++j) eng.recv(j, arrival[j]);
  }
  return eng.makespan() - before;
}

Usec run_allgather_rd_async(AsyncEngine& eng, Bytes msg) {
  const int p = eng.comm().size();
  TARR_REQUIRE(is_pow2(p), "run_allgather_rd_async: needs 2^k ranks");
  const Usec before = eng.makespan();
  for (int dist = 1; dist < p; dist <<= 1) {
    // Pairwise exchange: both directions depart concurrently (isend uses
    // each sender's own clock), then each partner waits for the other's
    // data before the next stage.
    std::vector<Usec> arrival(p, 0.0);
    for (Rank j = 0; j < p; ++j)
      arrival[j ^ dist] = eng.isend(j, j ^ dist, msg * dist);
    for (Rank j = 0; j < p; ++j) eng.recv(j, arrival[j]);
  }
  return eng.makespan() - before;
}

}  // namespace tarr::simmpi
