#include "simmpi/engine.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/permutation.hpp"
#include "prof/profiler.hpp"

namespace tarr::simmpi {

Engine::Engine(const Communicator& comm, const CostConfig& cfg, ExecMode mode,
               Bytes block_bytes, int buf_blocks)
    : comm_(&comm),
      cost_(comm.machine(), cfg),
      mode_(mode),
      block_bytes_(block_bytes),
      buf_blocks_(buf_blocks),
      sink_(obs::ambient().sink) {
  TARR_REQUIRE(block_bytes >= 1, "Engine: block_bytes must be >= 1");
  TARR_REQUIRE(buf_blocks >= 1, "Engine: buf_blocks must be >= 1");
  // Transfer spans and stage loads are derived from the cost model's
  // per-stage detail, so capture follows the sink.
  cost_.set_capture_details(sink_ != nullptr);
  if (mode_ == ExecMode::Data) {
    buf_.assign(comm.size(),
                std::vector<std::uint32_t>(buf_blocks, kEmptyTag));
  }
  if constexpr (kSlowChecksEnabled) {
    verifier_ = std::make_unique<check::StageVerifier>(
        comm.size(), buf_blocks, comm.rank_to_core());
  }
}

void Engine::trace_phase_begin(std::string name) {
  if (sink_ == nullptr) return;
  phase_stack_.emplace_back(std::move(name), total_);
}

void Engine::trace_phase_end() {
  if (phase_stack_.empty()) return;  // no sink at begin time (or mismatch)
  auto [name, start] = std::move(phase_stack_.back());
  phase_stack_.pop_back();
  if (sink_ != nullptr)
    sink_->on_phase(trace::PhaseEvent{std::move(name), start, total_ - start});
}

void Engine::set_transient_faults(const TransientFaultConfig& cfg) {
  TARR_REQUIRE(!stage_open_ && stages_executed_ == 0,
               "set_transient_faults: must be armed before the first stage");
  validate(cfg);
  if (!cfg.enabled()) return;  // zero probabilities: stay on the exact
                               // fault-free path
  fault_cfg_ = cfg;
  fault_rng_.reseed(cfg.seed);
}

int Engine::draw_attempts(Bytes bytes) {
  const TransientFaultConfig& cfg = *fault_cfg_;
  Usec timeout = cfg.retry_timeout;
  Usec wait = 0.0;
  int attempts = 0;
  bool delivered = false;
  while (attempts < cfg.max_attempts) {
    ++attempts;
    ++fault_stats_.attempts;
    const double u = fault_rng_.next_double();
    if (u < cfg.drop_prob) {
      // Lost in the fabric: the sender notices only after the timeout.
      ++fault_stats_.drops;
      fault_stats_.retransmitted_bytes += bytes;
      wait += timeout;
      timeout *= cfg.backoff;
    } else if (u < cfg.drop_prob + cfg.corrupt_prob) {
      // Checksum failure at the receiver: NACK and immediate resend.
      ++fault_stats_.corruptions;
      fault_stats_.retransmitted_bytes += bytes;
    } else {
      delivered = true;
      break;
    }
  }
  TARR_REQUIRE(delivered,
               "transient fault: transfer still failing after " +
                   std::to_string(cfg.max_attempts) +
                   " attempts; fail the component via fault::FaultMask "
                   "instead of modeling it as transient");
  fault_stats_.retransmissions += attempts - 1;
  fault_stats_.timeout_wait += wait;
  stage_retry_wait_ = std::max(stage_retry_wait_, wait);
  return attempts;
}

void Engine::set_block(Rank r, int off, std::uint32_t tag) {
  if (mode_ != ExecMode::Data) return;
  TARR_REQUIRE(r >= 0 && r < comm_->size(), "set_block: rank out of range");
  TARR_REQUIRE(off >= 0 && off < buf_blocks_, "set_block: offset out of range");
  buf_[r][off] = tag;
}

std::uint32_t Engine::block(Rank r, int off) const {
  TARR_REQUIRE(mode_ == ExecMode::Data, "block: only valid in Data mode");
  TARR_REQUIRE(r >= 0 && r < comm_->size(), "block: rank out of range");
  TARR_REQUIRE(off >= 0 && off < buf_blocks_, "block: offset out of range");
  return buf_[r][off];
}

void Engine::begin_stage() {
  TARR_REQUIRE(!stage_open_, "begin_stage: previous stage still open");
  if (verifier_) verifier_->on_begin_stage();
  stage_open_ = true;
  cost_.begin_stage();
}

void Engine::copy(Rank src, int src_off, Rank dst, int dst_off, int nblocks) {
  enqueue(src, src_off, dst, dst_off, nblocks, /*combining=*/false);
}

void Engine::combine(Rank src, int src_off, Rank dst, int dst_off,
                     int nblocks) {
  enqueue(src, src_off, dst, dst_off, nblocks, /*combining=*/true);
}

void Engine::enqueue(Rank src, int src_off, Rank dst, int dst_off,
                     int nblocks, bool combining) {
  TARR_REQUIRE(stage_open_, "copy: no open stage");
  TARR_REQUIRE(src >= 0 && src < comm_->size() && dst >= 0 &&
                   dst < comm_->size(),
               "copy: rank out of range");
  TARR_REQUIRE(nblocks >= 1, "copy: nblocks must be >= 1");
  TARR_REQUIRE(src_off >= 0 && src_off + nblocks <= buf_blocks_,
               "copy: source range out of buffer");
  TARR_REQUIRE(dst_off >= 0 && dst_off + nblocks <= buf_blocks_,
               "copy: destination range out of buffer");
  if (verifier_)
    verifier_->on_transfer(src, src_off, dst, dst_off, nblocks, combining);

  const trace::Copy c{stages_executed_, src, dst, src_off, dst_off, nblocks,
                      static_cast<Bytes>(nblocks) * block_bytes_, combining};
  if (src == dst) {
    local_copies_.push_back(c);
  } else {
    // Every retransmission attempt reloads the same links, so it is priced
    // as one more concurrent transfer of the stage (attempts == 1 when the
    // fault model is off — the exact fault-free path).
    const int attempts = fault_cfg_ ? draw_attempts(c.bytes) : 1;
    if (sink_ != nullptr) {
      // Attempts are submitted consecutively, so the logical transfer's
      // detail record is the running attempt count before this submission.
      const int record = stage_xfers_.empty()
                             ? 0
                             : stage_xfers_.back().record +
                                   stage_xfers_.back().attempts;
      stage_xfers_.push_back(TraceXfer{c, attempts, record});
    }
    const CoreId a = comm_->core_of(src);
    const CoreId b = comm_->core_of(dst);
    for (int k = 0; k < attempts; ++k) cost_.add_transfer(a, b, c.bytes);
  }

  ++stage_copies_;
  if (mode_ == ExecMode::Data) {
    // Capture the pre-stage payload now; all mutations happen in end_stage.
    pending_.push_back(PendingCopy{
        c, std::vector<std::uint32_t>(buf_[src].begin() + src_off,
                                      buf_[src].begin() + src_off + nblocks)});
  }
}

Usec Engine::end_stage() {
  TARR_REQUIRE(stage_open_, "end_stage: no open stage");
  if (verifier_) verifier_->on_end_stage();
  const Usec stage_start = total_;
  Usec stage = cost_.finish_stage();
  // Local copies are priced per rank: one local memory copy of the bytes
  // the rank's copies move, summed in submission order.  Group them by
  // rank, keeping each rank's order; schedules submit them in ascending
  // rank, so the sort rarely runs.
  const auto by_rank = [](const trace::Copy& x, const trace::Copy& y) {
    return x.src < y.src;
  };
  if (!std::is_sorted(local_copies_.begin(), local_copies_.end(), by_rank))
    std::stable_sort(local_copies_.begin(), local_copies_.end(), by_rank);
  for (auto first = local_copies_.begin(); first != local_copies_.end();) {
    const Rank r = first->src;
    auto last = first;
    Usec sum = 0.0;
    for (; last != local_copies_.end() && last->src == r; ++last)
      sum += static_cast<double>(last->bytes);
    const Bytes bytes = static_cast<Bytes>(sum);
    const Usec cost = cost_.local_copy_cost(bytes);
    stage = std::max(stage, cost);
    if (sink_ != nullptr) {
      // One Local span per copying rank and stage, carrying its copies.
      const CoreId core = comm_->core_of(r);
      sink_->on_transfer(trace::TransferEvent{
          stages_executed_, r, r, core, core, bytes, trace::Channel::Local,
          1.0, 1, stage_start, cost, cost, {first, last}});
    }
    first = last;
  }
  local_copies_.clear();
  const Usec retry_wait = stage_retry_wait_;
  if (stage_retry_wait_ > 0.0) {
    // The worst retry chain of the stage serializes its drop-detection
    // timeouts in front of the (already contention-priced) retransmissions.
    stage += stage_retry_wait_;
    stage_retry_wait_ = 0.0;
  }
  if (mode_ == ExecMode::Data) {
    for (const PendingCopy& pc : pending_) {
      const trace::Copy& c = pc.copy;
      if (c.combining) {
        for (int k = 0; k < c.nblocks; ++k)
          buf_[c.dst][c.dst_off + k] ^= pc.payload[k];
      } else {
        std::copy(pc.payload.begin(), pc.payload.end(),
                  buf_[c.dst].begin() + c.dst_off);
      }
    }
  }
  const int transfers = stage_copies_;
  stage_copies_ = 0;
  pending_.clear();
  stage_open_ = false;
  last_stage_cost_ = stage;
  last_stage_transfers_ = transfers;
  last_stage_retry_wait_ = retry_wait;
  total_ += stage;
  if (sink_ != nullptr) emit_stage_trace(stage_start, stage, retry_wait);
  if (prof::Profiler* p = obs::ambient().prof) {
    p->count("engine.stages", 1.0);
    p->count("engine.transfers", static_cast<double>(transfers));
  }
  ++stages_executed_;
  return stage;
}

void Engine::emit_stage_trace(Usec stage_start, Usec stage_cost,
                              Usec retry_wait) {
  const CostModel::StageDetail& d = cost_.last_stage_detail();
  // Remote transfer spans, priced with the channel class and contention
  // factor the cost model attributed to each (first attempt's record; the
  // retries reload the same channel).
  for (const TraceXfer& x : stage_xfers_) {
    const CostModel::TransferRecord& rec = d.transfers[x.record];
    sink_->on_transfer(trace::TransferEvent{
        stages_executed_, x.copy.src, x.copy.dst, comm_->core_of(x.copy.src),
        comm_->core_of(x.copy.dst), x.copy.bytes, rec.channel,
        rec.contention, x.attempts, stage_start, rec.cost, rec.uncontended,
        {&x.copy, 1}});
  }
  stage_xfers_.clear();
  // The stage event carries the stage's directed cable and QPI loads.
  sink_->on_stage(trace::StageEvent{stages_executed_, last_stage_transfers_,
                                    1, stage_start, stage_cost, retry_wait,
                                    d.loads});
}

void Engine::repeat_last_stage(int extra) {
  TARR_REQUIRE(!stage_open_, "repeat_last_stage: stage still open");
  TARR_REQUIRE(compresses_repeats(),
               "repeat_last_stage: only valid in Timed mode without "
               "transient faults");
  TARR_REQUIRE(extra >= 0, "repeat_last_stage: negative repeat count");
  if (sink_ != nullptr && extra > 0 && stages_executed_ > 0) {
    // One compressed span covering all repeats of the stage just ended; it
    // carries no loads (they are the repeated stage's).
    sink_->on_stage(trace::StageEvent{
        stages_executed_ - 1, last_stage_transfers_, extra, total_,
        last_stage_cost_ * static_cast<double>(extra),
        last_stage_retry_wait_, {}});
  }
  if (extra > 0) prof::count("engine.stage_repeats", extra);
  total_ += last_stage_cost_ * static_cast<double>(extra);
}

void Engine::local_permute_all(const std::vector<int>& dst_of_block) {
  TARR_REQUIRE(!stage_open_, "local_permute_all: stage still open");
  TARR_REQUIRE(static_cast<int>(dst_of_block.size()) == buf_blocks_,
               "local_permute_all: permutation size mismatch");
  TARR_REQUIRE(is_permutation_of_iota(dst_of_block),
               "local_permute_all: not a permutation");

  int moved = 0;
  for (int b = 0; b < buf_blocks_; ++b)
    if (dst_of_block[b] != b) ++moved;
  if (moved == 0) return;

  if (mode_ == ExecMode::Data) {
    std::vector<std::uint32_t> tmp(buf_blocks_);
    for (auto& buf : buf_) {
      for (int b = 0; b < buf_blocks_; ++b) tmp[dst_of_block[b]] = buf[b];
      buf = tmp;
    }
  }
  const Usec cost =
      cost_.local_copy_cost(static_cast<Bytes>(moved) * block_bytes_);
  if (sink_ != nullptr)
    sink_->on_time(
        trace::TimeEvent{"local-shuffle", total_, cost, dst_of_block});
  total_ += cost;
}

}  // namespace tarr::simmpi
