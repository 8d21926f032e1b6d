#include "analyze/analyzer.hpp"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/permutation.hpp"

namespace tarr::analyze {
namespace {

using trace::Copy;
using trace::Load;
using trace::RecordedStage;
using trace::RecordedTransfer;
using trace::ScheduleRecord;

/// Deterministic byte-count rendering: loads are doubles but always hold
/// whole byte counts, so print them as integers when they are.
std::string fmt_bytes(double b) {
  const auto i = static_cast<long long>(b);
  if (static_cast<double>(i) == b) return std::to_string(i);
  return std::to_string(b);
}

/// Cap on findings recorded per property (the rest are counted but not
/// materialized, keeping certificates of badly broken schedules small).
constexpr int kMaxFindingsPerProperty = 16;

/// Collects findings in pass order with a per-property cap.
class Emitter {
 public:
  void emit(Property p, Severity sev, int stage, std::string msg) {
    if (sev == Severity::Error) any_error_ = true;
    if (count_[static_cast<int>(p)]++ >= kMaxFindingsPerProperty) {
      ++suppressed_;
      return;
    }
    findings_.push_back(Finding{p, sev, stage, std::move(msg)});
  }

  bool any_error() const { return any_error_; }
  int suppressed() const { return suppressed_; }
  std::vector<Finding> take() { return std::move(findings_); }
  bool saw(Property p) const { return count_[static_cast<int>(p)] > 0; }

 private:
  std::vector<Finding> findings_;
  int count_[9] = {};
  int suppressed_ = 0;
  bool any_error_ = false;
};

std::string rank_slot(Rank r, int slot) {
  return "rank " + std::to_string(r) + " slot " + std::to_string(slot);
}

/// Pass 1: record shape vs contract — everything the later passes index
/// with must be in range.  Returns false when the record is too malformed
/// to interpret safely.
bool check_structure(const ScheduleRecord& rec, const Contract& c,
                     Emitter& em) {
  bool safe = true;
  const auto bad = [&](int stage, std::string msg) {
    em.emit(Property::Structure, Severity::Error, stage, std::move(msg));
    safe = false;
  };
  const int nstages = static_cast<int>(rec.stages.size());
  for (const Copy& cp : rec.copies) {
    if (cp.src < 0 || cp.src >= c.num_ranks || cp.dst < 0 ||
        cp.dst >= c.num_ranks)
      bad(cp.stage, "copy rank out of range: rank " + std::to_string(cp.src) +
                        " -> rank " + std::to_string(cp.dst) + " with " +
                        std::to_string(c.num_ranks) + " ranks");
    if (cp.nblocks < 1 || cp.src_off < 0 ||
        cp.src_off + cp.nblocks > c.buf_blocks || cp.dst_off < 0 ||
        cp.dst_off + cp.nblocks > c.buf_blocks)
      bad(cp.stage,
          "copy block range out of buffer: src_off " +
              std::to_string(cp.src_off) + " dst_off " +
              std::to_string(cp.dst_off) + " nblocks " +
              std::to_string(cp.nblocks) + " with " +
              std::to_string(c.buf_blocks) + " blocks per rank");
  }
  for (const RecordedTransfer& t : rec.transfers) {
    if (t.src < 0 || t.src >= c.num_ranks || t.dst < 0 ||
        t.dst >= c.num_ranks)
      bad(t.stage, "transfer rank out of range: rank " +
                       std::to_string(t.src) + " -> rank " +
                       std::to_string(t.dst));
  }
  for (const RecordedStage& s : rec.stages) {
    if (s.first_copy < 0 || s.num_copies < 0 ||
        s.first_copy + s.num_copies > static_cast<int>(rec.copies.size()) ||
        s.first_transfer < 0 || s.num_transfers < 0 ||
        s.first_transfer + s.num_transfers >
            static_cast<int>(rec.transfers.size()) ||
        s.first_load < 0 || s.num_loads < 0 ||
        s.first_load + s.num_loads > static_cast<int>(rec.loads.size())) {
      bad(s.stage, "stage entry references slices outside the record");
      continue;
    }
    // Stage-barrier consistency: everything a stage owns is tagged with it.
    if (s.repeats == 1) {
      for (const Copy& cp : rec.copies_of(s))
        if (cp.stage != s.stage)
          bad(s.stage, "copy tagged stage " + std::to_string(cp.stage) +
                           " recorded inside stage " + std::to_string(s.stage));
      for (const RecordedTransfer& t : rec.transfers_of(s))
        if (t.stage != s.stage)
          bad(s.stage, "transfer tagged stage " + std::to_string(t.stage) +
                           " recorded inside stage " + std::to_string(s.stage));
    }
  }
  for (const auto& ev : rec.events) {
    const bool stage = ev.kind == ScheduleRecord::EventRef::Kind::Stage;
    const int limit =
        stage ? nstages : static_cast<int>(rec.extras.size());
    if (ev.index < 0 || ev.index >= limit)
      bad(-1, "event stream references a missing entry");
  }
  return safe;
}

/// Pass 2: stage order and barrier clock.  Stage indices must be
/// consecutive (a repeat block re-runs the stage just closed), and every
/// recorded start must equal the replayed clock bit-exactly — the same
/// additions in the same order the engine performed.  In the
/// stage-synchronous model this is the deadlock-freedom obligation (see
/// analyzer.hpp).
void check_stage_order(const ScheduleRecord& rec, Emitter& em) {
  Usec clock = 0.0;
  int next_stage = 0;
  for (const auto& ev : rec.events) {
    if (ev.kind == ScheduleRecord::EventRef::Kind::Stage) {
      const RecordedStage& s = rec.stages[ev.index];
      if (s.repeats == 1) {
        if (s.stage != next_stage)
          em.emit(Property::StageOrder, Severity::Error, s.stage,
                  "stage " + std::to_string(s.stage) +
                      " out of order: expected stage " +
                      std::to_string(next_stage) + " next");
        next_stage = s.stage + 1;
      } else if (s.stage != next_stage - 1) {
        em.emit(Property::StageOrder, Severity::Error, s.stage,
                "repeat block repeats stage " + std::to_string(s.stage) +
                    " but stage " + std::to_string(next_stage - 1) +
                    " was the last one executed");
      }
      if (s.start != clock)
        em.emit(Property::StageOrder, Severity::Error, s.stage,
                "stage " + std::to_string(s.stage) + " starts at t=" +
                    std::to_string(s.start) + " but the replayed clock is t=" +
                    std::to_string(clock));
      clock += s.duration;
    } else {
      const trace::RecordedExtra& e = rec.extras[ev.index];
      if (e.start != clock)
        em.emit(Property::StageOrder, Severity::Error, -1,
                "extra '" + e.what + "' starts at t=" +
                    std::to_string(e.start) +
                    " but the replayed clock is t=" + std::to_string(clock));
      clock += e.duration;
    }
  }
  if (clock != rec.total)
    em.emit(Property::StageOrder, Severity::Error, -1,
            "event durations sum to " + std::to_string(clock) +
                " but the record total is " + std::to_string(rec.total));
}

/// Pass 3: no transfer priced to its own rank, no copy targeting its own
/// source slot.
void check_self_transfers(const ScheduleRecord& rec, Emitter& em) {
  for (const RecordedTransfer& t : rec.transfers) {
    if (t.channel != trace::Channel::Local && t.src == t.dst)
      em.emit(Property::SelfTransfer, Severity::Error, t.stage,
              "rank " + std::to_string(t.src) +
                  " is priced a " + trace::to_string(t.channel) +
                  " transfer to itself (" + std::to_string(t.bytes) +
                  " bytes)");
    if (t.channel == trace::Channel::Local && t.src != t.dst)
      em.emit(Property::Structure, Severity::Error, t.stage,
              "local transfer spans two ranks: rank " +
                  std::to_string(t.src) + " -> rank " +
                  std::to_string(t.dst));
  }
  for (const Copy& cp : rec.copies) {
    if (cp.src != cp.dst || cp.src_off != cp.dst_off) continue;
    if (cp.combining)
      em.emit(Property::SelfTransfer, Severity::Error, cp.stage,
              rank_slot(cp.src, cp.src_off) +
                  " combines into itself: x ^ x zeroes the block");
    else
      em.emit(Property::SelfTransfer, Severity::Warning, cp.stage,
              rank_slot(cp.src, cp.src_off) + " no-op self-copy");
  }
}

/// Pass 4: byte conservation.  Every copy's bytes equal nblocks x the
/// (inferred) block size, and per stage the remote copies and the priced
/// transfers form identical (src, dst, bytes) multisets — every submitted
/// byte is priced, every priced byte was submitted, none change in flight.
/// Local copies must sum to each rank's aggregated Local pricing span.
void check_byte_conservation(const ScheduleRecord& rec, Emitter& em) {
  Bytes block_bytes = 0;
  for (const Copy& cp : rec.copies) {
    if (cp.nblocks >= 1 && cp.bytes > 0) {
      block_bytes = cp.bytes / cp.nblocks;
      break;
    }
  }
  if (block_bytes > 0) {
    for (const Copy& cp : rec.copies) {
      if (cp.bytes != static_cast<Bytes>(cp.nblocks) * block_bytes)
        em.emit(Property::ByteConservation, Severity::Error, cp.stage,
                "copy rank " + std::to_string(cp.src) + " -> rank " +
                    std::to_string(cp.dst) + " carries " +
                    std::to_string(cp.bytes) + " bytes for " +
                    std::to_string(cp.nblocks) + " blocks of " +
                    std::to_string(block_bytes) + " bytes");
    }
  }
  using Edge = std::tuple<Rank, Rank, Bytes>;
  for (const RecordedStage& s : rec.stages) {
    if (s.repeats != 1) continue;  // shares the original stage's slices
    std::vector<Edge> sent;
    std::vector<Edge> priced;
    std::map<Rank, Bytes> local_sent;
    std::map<Rank, Bytes> local_priced;
    for (const Copy& cp : rec.copies_of(s)) {
      if (cp.src == cp.dst)
        local_sent[cp.src] += cp.bytes;
      else
        sent.emplace_back(cp.src, cp.dst, cp.bytes);
    }
    for (const RecordedTransfer& t : rec.transfers_of(s)) {
      if (t.channel == trace::Channel::Local)
        local_priced[t.src] += t.bytes;
      else
        priced.emplace_back(t.src, t.dst, t.bytes);
    }
    std::sort(sent.begin(), sent.end());
    std::sort(priced.begin(), priced.end());
    const auto describe = [](const Edge& e) {
      return "rank " + std::to_string(std::get<0>(e)) + " -> rank " +
             std::to_string(std::get<1>(e)) + " (" +
             std::to_string(std::get<2>(e)) + " bytes)";
    };
    std::vector<Edge> only_sent;
    std::vector<Edge> only_priced;
    std::set_difference(sent.begin(), sent.end(), priced.begin(),
                        priced.end(), std::back_inserter(only_sent));
    std::set_difference(priced.begin(), priced.end(), sent.begin(),
                        sent.end(), std::back_inserter(only_priced));
    for (const Edge& e : only_sent)
      em.emit(Property::ByteConservation, Severity::Error, s.stage,
              "stage " + std::to_string(s.stage) + ": submitted copy " +
                  describe(e) + " has no matching priced transfer");
    for (const Edge& e : only_priced)
      em.emit(Property::ByteConservation, Severity::Error, s.stage,
              "stage " + std::to_string(s.stage) + ": priced transfer " +
                  describe(e) + " was never submitted as a copy");
    for (const auto& [r, b] : local_sent) {
      const auto it = local_priced.find(r);
      const Bytes have = it == local_priced.end() ? 0 : it->second;
      if (have != b)
        em.emit(Property::ByteConservation, Severity::Error, s.stage,
                "stage " + std::to_string(s.stage) + ": rank " +
                    std::to_string(r) + " submitted " + std::to_string(b) +
                    " local bytes but " + std::to_string(have) +
                    " were priced");
    }
    for (const auto& [r, b] : local_priced)
      if (local_sent.find(r) == local_sent.end())
        em.emit(Property::ByteConservation, Severity::Error, s.stage,
                "stage " + std::to_string(s.stage) + ": rank " +
                    std::to_string(r) + " priced " + std::to_string(b) +
                    " local bytes with no local copy submitted");
  }
}

/// Pass 5: the dataflow proof — abstract interpretation of the schedule
/// over OriginSet (see contract.hpp).  All sources of a stage are read
/// before any write lands, mirroring the engine's simultaneous-exchange
/// semantics.
void check_dataflow(const ScheduleRecord& rec, const Contract& c,
                    Emitter& em) {
  for (const RecordedStage& s : rec.stages) {
    if (s.repeats != 1) {
      em.emit(Property::Structure, Severity::Error, s.stage,
              "record is repeat-compressed (Timed-mode run); dataflow "
              "certification needs a Data-mode record");
      return;
    }
  }
  std::vector<std::vector<OriginSet>> state(
      c.num_ranks, std::vector<OriginSet>(c.buf_blocks));
  for (const Contract::Seed& sd : c.seeds)
    state[sd.rank][sd.block] = OriginSet::single(c.num_origins, sd.origin);

  // Per-slot write bookkeeping within one stage: kNone / kPlain / kCombine.
  enum : signed char { kNone = 0, kPlain = 1, kCombine = 2 };
  std::vector<signed char> written(
      static_cast<std::size_t>(c.num_ranks) * c.buf_blocks, kNone);
  std::vector<int> touched;

  for (const auto& ev : rec.events) {
    if (ev.kind == ScheduleRecord::EventRef::Kind::Extra) {
      const trace::RecordedExtra& e = rec.extras[ev.index];
      if (e.dst_of_block.empty()) continue;
      if (static_cast<int>(e.dst_of_block.size()) != c.buf_blocks ||
          !is_permutation_of_iota(e.dst_of_block)) {
        em.emit(Property::Structure, Severity::Error, -1,
                "extra '" + e.what +
                    "' carries an invalid block permutation");
        return;
      }
      for (auto& buf : state) {
        std::vector<OriginSet> next(c.buf_blocks);
        for (int b = 0; b < c.buf_blocks; ++b)
          next[e.dst_of_block[b]] = std::move(buf[b]);
        buf = std::move(next);
      }
      continue;
    }
    const RecordedStage& s = rec.stages[ev.index];
    const auto copies = rec.copies_of(s);
    // Read every source against the pre-stage state first.
    std::vector<std::vector<OriginSet>> staged;
    staged.reserve(copies.size());
    for (const Copy& cp : copies) {
      std::vector<OriginSet> vals;
      vals.reserve(cp.nblocks);
      for (int k = 0; k < cp.nblocks; ++k) {
        const OriginSet& v = state[cp.src][cp.src_off + k];
        if (!v.known())
          em.emit(Property::UninitializedRead, Severity::Error, s.stage,
                  "stage " + std::to_string(s.stage) + ": " +
                      rank_slot(cp.src, cp.src_off + k) +
                      " is sent to " + rank_slot(cp.dst, cp.dst_off + k) +
                      " but was never seeded or written");
        vals.push_back(v);
      }
      staged.push_back(std::move(vals));
    }
    // Then land the writes, checking for order-dependent conflicts.
    for (std::size_t i = 0; i < copies.size(); ++i) {
      const Copy& cp = copies[i];
      for (int k = 0; k < cp.nblocks; ++k) {
        const int slot = cp.dst_off + k;
        const std::size_t key =
            static_cast<std::size_t>(cp.dst) * c.buf_blocks + slot;
        const signed char kind = cp.combining ? kCombine : kPlain;
        if (written[key] == kNone) touched.push_back(static_cast<int>(key));
        if ((written[key] == kPlain && kind == kPlain))
          em.emit(Property::WriteConflict, Severity::Error, s.stage,
                  "stage " + std::to_string(s.stage) + ": " +
                      rank_slot(cp.dst, slot) +
                      " is plain-written twice in one stage — the result "
                      "is submission-order dependent");
        else if (written[key] != kNone && written[key] != kind)
          em.emit(Property::WriteConflict, Severity::Error, s.stage,
                  "stage " + std::to_string(s.stage) + ": " +
                      rank_slot(cp.dst, slot) +
                      " is both overwritten and combined into in one "
                      "stage — the result is submission-order dependent");
        written[key] = kind;
        if (cp.combining)
          state[cp.dst][slot].combine_with(staged[i][k]);
        else
          state[cp.dst][slot] = staged[i][k];
      }
    }
    for (int key : touched) written[key] = kNone;
    touched.clear();
  }

  // The verdict: every constrained slot holds exactly its required set.
  if (c.expected.empty()) return;
  for (Rank r = 0; r < c.num_ranks; ++r) {
    for (int b = 0; b < c.buf_blocks; ++b) {
      const OriginSet* want = c.required(r, b);
      if (want == nullptr) continue;
      const OriginSet& have = state[r][b];
      if (have == *want) continue;
      std::string msg = rank_slot(r, b) + " ends holding " +
                        have.to_string() + " but the contract requires " +
                        want->to_string();
      if (have.known()) {
        OriginSet missing = *want;
        missing.combine_with(have);  // symmetric difference
        std::vector<int> delta = missing.members();
        std::string miss;
        std::string extra;
        for (int o : delta) {
          std::string& side = want->contains(o) ? miss : extra;
          if (!side.empty()) side += ",";
          side += std::to_string(o);
        }
        if (!miss.empty()) msg += " (missing {" + miss + "}";
        if (!extra.empty())
          msg += (miss.empty() ? " (" : "; ") + std::string("extra {") +
                 extra + "}";
        if (!miss.empty() || !extra.empty()) msg += ")";
      } else {
        msg += " (the slot was never written)";
      }
      em.emit(Property::ContractViolation, Severity::Error, -1,
              std::move(msg));
    }
  }
}

/// Pass 6: recompute each stage's resource loads from the priced transfers
/// and cross-check against the recorded counters; flag loads over the
/// configured bounds.
void check_capacity(const ScheduleRecord& rec, const topology::Machine& m,
                    const AnalyzeOptions& opts, Emitter& em) {
  // No counters anywhere: the run was traced without contention modeling
  // (or not at all) — nothing to cross-check.
  const bool have_counters = !rec.loads.empty();
  for (const RecordedStage& s : rec.stages) {
    if (s.repeats != 1) continue;
    const std::vector<Load> computed = static_stage_loads(rec, s, m);
    if (have_counters) {
      const auto recorded = rec.loads_of(s);
      const std::size_t n =
          std::min(recorded.size(), computed.size());
      for (std::size_t i = 0; i < n; ++i) {
        const Load& a = recorded[i];
        const Load& b = computed[i];
        if (a.qpi == b.qpi && a.id == b.id && a.dir == b.dir &&
            a.bytes == b.bytes)
          continue;
        em.emit(Property::CounterMismatch, Severity::Error, s.stage,
                "stage " + std::to_string(s.stage) + ": traced counter " +
                    std::to_string(i) + " is " +
                    std::string(a.qpi ? "qpi" : "link") + " " +
                    std::to_string(a.id) + " dir " + std::to_string(a.dir) +
                    " = " + fmt_bytes(a.bytes) +
                    " bytes but the static replay computes " +
                    std::string(b.qpi ? "qpi" : "link") + " " +
                    std::to_string(b.id) + " dir " + std::to_string(b.dir) +
                    " = " + fmt_bytes(b.bytes) + " bytes");
      }
      if (recorded.size() != computed.size())
        em.emit(Property::CounterMismatch, Severity::Error, s.stage,
                "stage " + std::to_string(s.stage) + ": " +
                    std::to_string(recorded.size()) +
                    " counters traced but the static replay computes " +
                    std::to_string(computed.size()));
    }
    for (const Load& l : computed) {
      if (l.qpi) {
        if (opts.max_qpi_bytes > 0.0 && l.bytes > opts.max_qpi_bytes)
          em.emit(Property::CapacityHazard, Severity::Warning, s.stage,
                  "stage " + std::to_string(s.stage) + ": QPI of node " +
                      std::to_string(l.id) + " dir " +
                      std::to_string(l.dir) + " carries " +
                      fmt_bytes(l.bytes) + " bytes, over the configured " +
                      fmt_bytes(opts.max_qpi_bytes) + "-byte bound");
      } else if (opts.max_link_load > 0.0) {
        const double rel = l.bytes / m.network().link(l.id).capacity;
        if (rel > opts.max_link_load)
          em.emit(Property::CapacityHazard, Severity::Warning, s.stage,
                  "stage " + std::to_string(s.stage) + ": cable " +
                      std::to_string(l.id) + " dir " +
                      std::to_string(l.dir) + " carries " +
                      fmt_bytes(l.bytes) + " bytes (" +
                      std::to_string(rel) +
                      "x capacity), over the configured " +
                      std::to_string(opts.max_link_load) + "x bound");
      }
    }
  }
}

}  // namespace

const char* to_string(Property p) {
  switch (p) {
    case Property::Structure:
      return "structure";
    case Property::StageOrder:
      return "stage-order";
    case Property::SelfTransfer:
      return "self-transfer";
    case Property::ByteConservation:
      return "byte-conservation";
    case Property::WriteConflict:
      return "write-conflict";
    case Property::UninitializedRead:
      return "uninitialized-read";
    case Property::ContractViolation:
      return "contract-violation";
    case Property::CapacityHazard:
      return "capacity-hazard";
    case Property::CounterMismatch:
      return "counter-mismatch";
  }
  return "?";
}

bool Certificate::has(Property p) const {
  for (const Finding& f : findings)
    if (f.property == p) return true;
  return false;
}

Property Certificate::leading() const {
  for (const Finding& f : findings)
    if (f.severity == Severity::Error) return f.property;
  return Property::Structure;
}

std::string Certificate::format() const {
  std::string out = "schedule: " + schedule + "\n";
  out += "verdict: ";
  out += certified ? "CERTIFIED" : "REJECTED";
  out += " (" + std::to_string(stages_checked) + " stages, " +
         std::to_string(copies_checked) + " copies checked)\n";
  if (!findings.empty()) {
    out += "findings (" + std::to_string(findings.size());
    if (suppressed > 0)
      out += " shown, " + std::to_string(suppressed) + " suppressed";
    out += "):\n";
    for (const Finding& f : findings) {
      out += "  [";
      out += f.severity == Severity::Error ? "error" : "warning";
      out += "] ";
      out += to_string(f.property);
      out += ": ";
      out += f.message;
      out += "\n";
    }
  }
  return out;
}

std::vector<trace::Load> static_stage_loads(
    const ScheduleRecord& rec, const RecordedStage& stage,
    const topology::Machine& m) {
  const auto& net = m.network();
  // Mirror CostModel's accumulators exactly: dense directed-load arrays
  // plus first-touch lists, one addition per retransmission attempt in
  // submission order, so the sums are bit-identical to the dynamic model.
  std::vector<double> link_bytes(
      static_cast<std::size_t>(net.num_links()) * 2, 0.0);
  std::vector<double> qpi_bytes(static_cast<std::size_t>(m.num_nodes()) * 2,
                                0.0);
  std::vector<int> touched_links;
  std::vector<int> touched_qpi;
  for (const RecordedTransfer& t : rec.transfers_of(stage)) {
    if (t.channel == trace::Channel::Local) continue;
    const NodeId na = m.node_of_core(t.src_core);
    const NodeId nb = m.node_of_core(t.dst_core);
    const double b = static_cast<double>(t.bytes);
    for (int attempt = 0; attempt < t.attempts; ++attempt) {
      if (na == nb) {
        const SocketId sa = m.socket_of_core(t.src_core);
        const SocketId sb = m.socket_of_core(t.dst_core);
        if (sa == sb) continue;  // same-socket copies load no shared wire
        const int dir = sa < sb ? 0 : 1;
        const std::size_t idx = static_cast<std::size_t>(na) * 2 + dir;
        if (qpi_bytes[idx] == 0.0)
          touched_qpi.push_back(static_cast<int>(idx));
        qpi_bytes[idx] += b;
        continue;
      }
      m.router().walk(na, nb, [&](topology::Hop h) {
        const int idx = 2 * h.link + h.dir;
        if (link_bytes[idx] == 0.0) touched_links.push_back(idx);
        link_bytes[idx] += b;
      });
    }
  }
  std::vector<trace::Load> out;
  out.reserve(touched_links.size() + touched_qpi.size());
  for (int idx : touched_links)
    out.push_back(trace::Load{false, idx / 2, idx % 2, link_bytes[idx]});
  for (int idx : touched_qpi)
    out.push_back(trace::Load{true, idx / 2, idx % 2, qpi_bytes[idx]});
  return out;
}

Certificate analyze(const ScheduleRecord& rec, const topology::Machine& m,
                    const Contract& contract, const AnalyzeOptions& opts) {
  contract.validate();
  Emitter em;
  Certificate cert;
  cert.schedule = contract.name;
  cert.stages_checked = static_cast<int>(rec.stages.size());
  cert.copies_checked = static_cast<int>(rec.copies.size());

  const bool safe = check_structure(rec, contract, em);
  check_stage_order(rec, em);
  if (safe) {
    check_self_transfers(rec, em);
    check_byte_conservation(rec, em);
    check_dataflow(rec, contract, em);
    check_capacity(rec, m, opts, em);
  }

  cert.certified = !em.any_error();
  cert.suppressed = em.suppressed();
  cert.findings = em.take();
  return cert;
}

}  // namespace tarr::analyze
