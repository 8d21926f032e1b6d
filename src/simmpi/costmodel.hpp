#pragma once

#include <vector>

#include "simmpi/communicator.hpp"
#include "topology/machine.hpp"
#include "trace/sink.hpp"

/// \file costmodel.hpp
/// Contention-aware communication cost model.
///
/// Transfers are charged per communication channel class, mirroring the
/// heterogeneity the paper exploits:
///   * intra node  — shared-memory copies bounded by each socket's memory
///                   bandwidth (a same-socket copy loads its socket with
///                   read+write traffic; a cross-socket copy loads both
///                   sockets and additionally the per-direction QPI link);
///   * inter node  — network, alpha + per-switch-hop latency + bytes over
///                   the bottleneck link's *aggregate* stage load divided by
///                   link capacity (this produces the 5:1-blocking
///                   congestion effects of Figs 3-4).
///
/// The model is stage-synchronous: transfers submitted between begin_stage()
/// and finish_stage() are considered concurrent, and the stage costs the
/// slowest of them.
///
/// Inter-node transfers are priced per node pair.  All transfers between
/// one (source node, destination node) pair share one route, so
/// add_transfer() only sums their bytes into a NodePair, and finish_stage()
/// walks each pair's route twice: once to add its summed bytes to every
/// link, then, with every load final, once to read its hop count and its
/// bottleneck load / capacity; each transfer then costs max(own bytes, its
/// pair's bottleneck).  Route work scales with the stage's node pairs, not
/// its transfers.  Every cost and record equals per-transfer pricing bit
/// for bit: link loads are sums of integer byte counts, exact in a double
/// (below 2^53) in any order, and pairs load in order of first submission,
/// so every link is first touched by the same transfer as before and the
/// link records keep their order.

namespace tarr::simmpi {

/// Channel parameters.  Units: microseconds and bytes (beta = us per byte).
struct CostConfig {
  double alpha_shm_socket = 0.3;     ///< same-socket latency
  double alpha_shm_cross = 0.6;      ///< cross-socket (QPI) latency

  /// Same-L3-complex channel (deep NodeShapes): latency and per-pair copy
  /// rate.  Defaults equal the socket class, so flat-socket machines (the
  /// paper's) are unaffected; deep-SMP studies can set a faster shared-L3
  /// path (see bench/ext_bigsmp).
  double alpha_shm_complex = 0.3;
  double beta_shm_complex_pair = 1.0 / 6500.0;

  /// Peak point-to-point shared-memory copy rate of one process pair
  /// (~6.5 GB/s), the per-transfer floor for both intra-node classes: on the
  /// paper's machine a lone cross-socket copy streams about as fast as a
  /// lone same-socket copy (both are memory-bound; QPI has headroom).
  double beta_shm_pair = 1.0 / 6500.0;

  /// Per-socket memory-subsystem service rate (~6.5 GB/s of copy traffic).
  /// A same-socket transfer loads its socket with its full byte count; a
  /// cross-socket transfer loads each of the two sockets with half (read on
  /// one side, write on the other).
  double beta_mem_socket = 1.0 / 6500.0;

  /// QPI per-direction bandwidth (~12.8 GB/s on the paper's QPI 6.4 GT/s
  /// nodes), shared by the cross-socket transfers of a node.
  double beta_qpi = 1.0 / 12800.0;

  double alpha_net = 1.8;            ///< network injection latency
  double alpha_hop = 0.1;            ///< per switch-to-switch hop
  double beta_net = 1.0 / 3200.0;    ///< per-cable QDR IB bandwidth

  double alpha_mem = 0.2;            ///< local memcpy latency
  double beta_mem = 1.0 / 6500.0;    ///< local memcpy bandwidth

  /// When false, transfers never share bandwidth (hop-count-only model —
  /// the ablation knob of bench/abl_contention).
  bool model_contention = true;
};

/// Stage-synchronous cost evaluator bound to one machine.
class CostModel {
 public:
  CostModel(const topology::Machine& m, const CostConfig& cfg);

  /// Start a new set of concurrent transfers.
  void begin_stage();

  /// Submit one transfer between cores (src != dst) of `bytes` bytes.
  void add_transfer(CoreId src, CoreId dst, Bytes bytes);

  /// Close the stage: returns its cost (max over the submitted transfers,
  /// with contention applied).  Resets for the next stage.
  Usec finish_stage();

  /// Full per-transfer and per-resource breakdown of one stage — the data
  /// tarr::trace turns into transfer spans and load counter tracks.  Opt-in
  /// because it allocates per stage; with capture off, finish_stage() does
  /// no extra work beyond one branch.
  struct TransferRecord {
    CoreId src = 0;
    CoreId dst = 0;
    Bytes bytes = 0;
    Usec cost = 0.0;  ///< this transfer's priced cost within the stage
    trace::Channel channel = trace::Channel::Network;
    double contention = 1.0;  ///< cost inflation over the uncontended floor
    /// Cost at contention 1.0 (latency terms + per-pair bandwidth floor);
    /// cost - uncontended is the stall resource sharing inflicted.
    Usec uncontended = 0.0;
  };
  struct StageDetail {
    std::vector<TransferRecord> transfers;  ///< submission order
    /// Aggregate byte load of every directed cable link the stage touched,
    /// then of every QPI direction, each in first-touch order.
    std::vector<trace::Load> loads;
  };

  /// Enable/disable detail capture (off by default).
  void set_capture_details(bool on) { capture_details_ = on; }
  bool capture_details() const { return capture_details_; }

  /// Detail of the stage most recently finished; empty unless capture was
  /// enabled before that finish_stage() call.
  const StageDetail& last_stage_detail() const { return detail_; }

  /// Cost of a node-local memory copy of `bytes` bytes.
  Usec local_copy_cost(Bytes bytes) const;

  const CostConfig& config() const { return cfg_; }

 private:
  struct Pending {
    CoreId src;
    CoreId dst;
    Bytes bytes;
    NodeId node;  ///< node of src
    int pair;     ///< index into pairs_; -1 for an intra-node transfer
  };

  /// Inter-node transfers of the stage from node `src` to node `dst`.
  struct NodePair {
    NodeId src;
    NodeId dst;
    double bytes = 0.0;  ///< summed bytes of its transfers
    int hops = 0;
    double peak = 0.0;  ///< max over its route of link load / capacity
  };

  /// Byte loads of one resource class, each slot marked on its first touch;
  /// `touched` lists the slots in first-touch order, for the stage records
  /// and for O(stage) clearing.
  struct Loads {
    std::vector<double> bytes;
    std::vector<unsigned char> marked;
    std::vector<int> touched;

    explicit Loads(std::size_t n) : bytes(n, 0.0), marked(n, 0) {}
    void add(int idx, double b) {
      if (!marked[idx]) {
        marked[idx] = 1;
        touched.push_back(idx);
      }
      bytes[idx] += b;
    }
    void clear();
    bool is_clear() const;
  };

  int socket_slot(NodeId n, SocketId s) const {
    return n * machine_->shape().sockets + s;
  }

  const topology::Machine* machine_;
  CostConfig cfg_;
  std::vector<Pending> pending_;
  /// The stage's node pairs in order of first submission.  A pair the
  /// per-source slot misses gets a second entry; each entry loads only its
  /// own bytes and all read the same final loads, so costs never depend on
  /// the dedup being complete.
  std::vector<NodePair> pairs_;
  /// Per source node, the index of the stage's most recent pair from it;
  /// -1 when it has none.
  std::vector<int> last_pair_from_;
  Loads links_;    ///< directed network links, slot 2 * link + dir
  Loads qpi_;      ///< QPI directions, slot 2 * node + dir
  Loads sockets_;  ///< socket memory subsystems, socket_slot(node, socket)
  StageDetail detail_;
  bool capture_details_ = false;
  bool stage_open_ = false;
};

}  // namespace tarr::simmpi
