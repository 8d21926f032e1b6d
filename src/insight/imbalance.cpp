#include "insight/imbalance.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace tarr::insight {

double jain_index(const std::vector<double>& values) {
  if (values.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double v : values) {
    sum += v;
    sum_sq += v * v;
  }
  if (sum_sq == 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(values.size()) * sum_sq);
}

ImbalanceReport analyze_imbalance(const trace::ScheduleRecord& record,
                                  int top_k) {
  TARR_REQUIRE(top_k >= 1, "analyze_imbalance: top_k must be >= 1");
  ImbalanceReport rep;

  // Size the rank table.
  Rank max_rank = -1;
  for (const auto& t : record.transfers)
    max_rank = std::max(max_rank, std::max(t.src, t.dst));
  if (max_rank < 0) return rep;
  rep.ranks.resize(static_cast<std::size_t>(max_rank) + 1);
  for (Rank r = 0; r <= max_rank; ++r)
    rep.ranks[static_cast<std::size_t>(r)].rank = r;

  // Per-stage busy extraction.  `busy` is scratch reused across stages;
  // `touched` lists the ranks the current stage involved.
  std::vector<Usec> busy(rep.ranks.size(), 0.0);
  std::vector<Rank> touched;
  rep.stages.reserve(record.stages.size());
  for (const auto& ev : record.events) {
    if (ev.kind != trace::ScheduleRecord::EventRef::Kind::Stage) continue;
    const trace::RecordedStage& s = record.stages[ev.index];
    const double reps = static_cast<double>(s.repeats);
    const Usec per_exec = s.duration / reps;
    touched.clear();
    for (const auto& t : record.transfers_of(s)) {
      auto touch = [&](Rank r, CoreId core) {
        auto& b = busy[static_cast<std::size_t>(r)];
        if (b == 0.0 && t.duration > 0.0) touched.push_back(r);
        if (t.duration > b) b = t.duration;
        auto& rl = rep.ranks[static_cast<std::size_t>(r)];
        rl.transfers += s.repeats;
        if (rl.core < 0) rl.core = core;
      };
      touch(t.src, t.src_core);
      if (t.dst != t.src) touch(t.dst, t.dst_core);
    }
    // touched collects ranks in transfer-emission order; sort so the stage
    // summary (and the tie-broken argmax) is order-canonical.
    std::sort(touched.begin(), touched.end());

    StageImbalance si;
    si.stage = s.stage;
    si.repeats = s.repeats;
    si.duration = s.duration;
    double sum_busy = 0.0;
    for (const Rank r : touched) {
      const Usec b = busy[static_cast<std::size_t>(r)];
      sum_busy += b;
      if (si.slowest == kNoRank || b > si.slowest_busy) {
        si.slowest = r;
        si.slowest_busy = b;
      }
      auto& rl = rep.ranks[static_cast<std::size_t>(r)];
      rl.busy += b * reps;
      const Usec stall = per_exec > b ? per_exec - b : 0.0;
      rl.stall += stall * reps;
    }
    if (!touched.empty() && sum_busy > 0.0) {
      const double mean = sum_busy / static_cast<double>(touched.size());
      si.imbalance = si.slowest_busy / mean;
    }
    rep.stages.push_back(si);
    for (const Rank r : touched) busy[static_cast<std::size_t>(r)] = 0.0;
  }

  // Whole-run aggregates over participating ranks.
  double sum_busy = 0.0;
  double max_busy = 0.0;
  long long participants = 0;
  for (const auto& rl : rep.ranks) {
    if (rl.transfers == 0) continue;
    ++participants;
    sum_busy += rl.busy;
    max_busy = std::max(max_busy, rl.busy);
    rep.busy_hist.record(rl.busy);
    rep.stall_hist.record(rl.stall);
  }
  if (participants > 0 && sum_busy > 0.0)
    rep.imbalance = max_busy / (sum_busy / static_cast<double>(participants));

  // Jain fairness over the run's directed resource loads.
  std::vector<double> loads;
  loads.reserve(record.link_bytes.size());
  for (const auto& [key, bytes] : record.link_bytes) loads.push_back(bytes);
  rep.jain_links = jain_index(loads);
  loads.clear();
  for (const auto& [key, bytes] : record.qpi_bytes) loads.push_back(bytes);
  rep.jain_qpi = jain_index(loads);

  // Top-K stragglers: busiest ranks, descending, lowest rank on ties.
  std::vector<Rank> order;
  for (const auto& rl : rep.ranks)
    if (rl.transfers > 0 && rl.busy > 0.0) order.push_back(rl.rank);
  std::sort(order.begin(), order.end(), [&](Rank a, Rank b) {
    const Usec ba = rep.ranks[static_cast<std::size_t>(a)].busy;
    const Usec bb = rep.ranks[static_cast<std::size_t>(b)].busy;
    if (ba != bb) return ba > bb;
    return a < b;
  });
  if (static_cast<int>(order.size()) > top_k) order.resize(top_k);
  rep.stragglers = std::move(order);

  // Top-K hot resources: exact aggregate bytes, descending.
  std::vector<trace::Load> hot;
  hot.reserve(record.link_bytes.size() + record.qpi_bytes.size());
  for (const auto& [key, bytes] : record.link_bytes)
    hot.push_back({false, key.first, key.second, bytes});
  for (const auto& [key, bytes] : record.qpi_bytes)
    hot.push_back({true, key.first, key.second, bytes});
  std::sort(hot.begin(), hot.end(), [](const trace::Load& a,
                                       const trace::Load& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    if (a.qpi != b.qpi) return a.qpi < b.qpi;
    if (a.id != b.id) return a.id < b.id;
    return a.dir < b.dir;
  });
  if (static_cast<int>(hot.size()) > top_k) hot.resize(top_k);
  rep.hot_resources = std::move(hot);

  return rep;
}

}  // namespace tarr::insight
