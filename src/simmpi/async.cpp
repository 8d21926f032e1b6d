#include "simmpi/async.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"

namespace tarr::simmpi {

Usec async_makespan(const trace::ScheduleRecord& record, int ranks,
                    const CostConfig& cfg) {
  TARR_REQUIRE(ranks >= 0, "async_makespan: negative rank count");
  if (!record.extras.empty())
    throw Error("async_makespan: no rule for out-of-stage time (" +
                record.extras.front().what + ")");
  std::vector<Usec> clock(ranks, 0.0);
  std::vector<Usec> depart;
  for (const trace::RecordedStage& s : record.stages) {
    const auto transfers = record.transfers_of(s);
    for (const trace::RecordedTransfer& t : transfers) {
      TARR_REQUIRE(t.src >= 0 && t.src < ranks && t.dst >= 0 && t.dst < ranks,
                   "async_makespan: rank out of range");
      TARR_REQUIRE(t.channel != trace::Channel::Local && t.src != t.dst,
                   "async_makespan: no rule for a local copy");
      TARR_REQUIRE(t.attempts == 1,
                   "async_makespan: no rule for a retransmission");
    }
    depart.resize(transfers.size());
    for (int r = 0; r < s.repeats; ++r) {
      for (std::size_t i = 0; i < transfers.size(); ++i) {
        const trace::RecordedTransfer& t = transfers[i];
        depart[i] = clock[t.src];
        clock[t.src] = depart[i] + kAsyncSendOverhead +
                       static_cast<double>(t.bytes) *
                           (t.channel == trace::Channel::Network
                                ? cfg.beta_net
                                : cfg.beta_shm_pair);
      }
      for (std::size_t i = 0; i < transfers.size(); ++i) {
        Usec& receiver = clock[transfers[i].dst];
        receiver = std::max(receiver, depart[i] + transfers[i].uncontended);
      }
    }
  }
  return clock.empty() ? 0.0 : *std::max_element(clock.begin(), clock.end());
}

}  // namespace tarr::simmpi
