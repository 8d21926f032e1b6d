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

  // The rank table: one entry per rank a transfer names, ascending, so its
  // size follows the ranks the record holds, not the largest id.
  std::vector<Rank> ids;
  ids.reserve(2 * record.transfers.size());
  for (const auto& t : record.transfers) {
    ids.push_back(t.src);
    ids.push_back(t.dst);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.empty()) return rep;
  rep.ranks.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) rep.ranks[i].rank = ids[i];
  const auto slot = [&](Rank r) {
    return static_cast<std::size_t>(
        std::lower_bound(ids.begin(), ids.end(), r) - ids.begin());
  };

  // Per-stage busy extraction.  `busy` is scratch reused across stages, by
  // table slot; `touched` lists the slots the current stage involved.
  std::vector<Usec> busy(rep.ranks.size(), 0.0);
  std::vector<std::size_t> touched;
  rep.stages.reserve(record.stages.size());
  for (const auto& ev : record.events) {
    if (ev.kind != trace::ScheduleRecord::EventRef::Kind::Stage) continue;
    const trace::RecordedStage& s = record.stages[ev.index];
    const double reps = static_cast<double>(s.repeats);
    const Usec per_exec = s.duration / reps;
    touched.clear();
    for (const auto& t : record.transfers_of(s)) {
      auto touch = [&](Rank r, CoreId core) {
        const std::size_t i = slot(r);
        auto& b = busy[i];
        if (b == 0.0 && t.duration > 0.0) touched.push_back(i);
        if (t.duration > b) b = t.duration;
        auto& rl = rep.ranks[i];
        rl.transfers += s.repeats;
        if (rl.core < 0) rl.core = core;
      };
      touch(t.src, t.src_core);
      if (t.dst != t.src) touch(t.dst, t.dst_core);
    }
    // touched collects slots in transfer-emission order; sort (slots follow
    // rank order) so the stage summary and its tie-broken argmax are
    // order-canonical.
    std::sort(touched.begin(), touched.end());

    StageImbalance si;
    si.stage = s.stage;
    si.repeats = s.repeats;
    si.duration = s.duration;
    double sum_busy = 0.0;
    for (const std::size_t i : touched) {
      auto& rl = rep.ranks[i];
      const Usec b = busy[i];
      sum_busy += b;
      if (si.slowest == kNoRank || b > si.slowest_busy) {
        si.slowest = rl.rank;
        si.slowest_busy = b;
      }
      rl.busy += b * reps;
      const Usec stall = per_exec > b ? per_exec - b : 0.0;
      rl.stall += stall * reps;
    }
    if (!touched.empty() && sum_busy > 0.0) {
      const double mean = sum_busy / static_cast<double>(touched.size());
      si.imbalance = si.slowest_busy / mean;
    }
    rep.stages.push_back(si);
    for (const std::size_t i : touched) busy[i] = 0.0;
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
  std::vector<trace::Load> loads = record.load_totals();
  std::vector<double> links, qpi;
  for (const trace::Load& l : loads) (l.qpi ? qpi : links).push_back(l.bytes);
  rep.jain_links = jain_index(links);
  rep.jain_qpi = jain_index(qpi);

  // Top-K stragglers: busiest ranks, descending, lowest rank on ties.
  std::vector<RankLoad> order;
  for (const auto& rl : rep.ranks)
    if (rl.transfers > 0 && rl.busy > 0.0) order.push_back(rl);
  std::sort(order.begin(), order.end(),
            [](const RankLoad& a, const RankLoad& b) {
              if (a.busy != b.busy) return a.busy > b.busy;
              return a.rank < b.rank;
            });
  if (static_cast<int>(order.size()) > top_k) order.resize(top_k);
  rep.stragglers = std::move(order);

  // Top-K hot resources: exact aggregate bytes, descending.
  std::sort(loads.begin(), loads.end(), [](const trace::Load& a,
                                           const trace::Load& b) {
    if (a.bytes != b.bytes) return a.bytes > b.bytes;
    if (a.qpi != b.qpi) return a.qpi < b.qpi;
    if (a.id != b.id) return a.id < b.id;
    return a.dir < b.dir;
  });
  if (static_cast<int>(loads.size()) > top_k) loads.resize(top_k);
  rep.hot_resources = std::move(loads);

  return rep;
}

}  // namespace tarr::insight
