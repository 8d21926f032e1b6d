#include "trace/metrics.hpp"

#include <cmath>

#include "bench/csv.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"

namespace tarr::trace {

namespace {

/// The entry `name` of `map`, value-initialized on first use: the lookup
/// goes by view, so only a new name builds its key string.
template <class Map>
typename Map::mapped_type& slot(Map& map, std::string_view name) {
  auto it = map.find(name);
  if (it == map.end()) it = map.try_emplace(std::string(name)).first;
  return it->second;
}

}  // namespace

void MetricsRegistry::observe_load(const CounterSample& s) {
  if (s.value <= 0.0) return;  // end-of-stage zero samples carry no heat
  auto& map = s.kind == CounterSample::Kind::Link ? link_heat_ : qpi_heat_;
  Heat& h = map[{s.id, s.dir}];
  ++h.stages;
  h.total += s.value;
  if (s.value > h.peak) h.peak = s.value;
}

void MetricsRegistry::observe_transfer(const TransferEvent& e) {
  ChannelStat& c = channels_[static_cast<int>(e.channel)];
  ++c.transfers;
  const double b = static_cast<double>(e.bytes);
  c.bytes += b;
  if (b > c.peak_bytes) c.peak_bytes = b;
  if (e.attempts > 1)
    slot(counters_, "fault.retransmissions") += e.attempts - 1;
}

void MetricsRegistry::add_count(std::string_view name, double delta) {
  if (!std::isfinite(delta))
    throw Error("MetricsRegistry::add_count('" + std::string(name) +
                "'): non-finite delta rejected (a NaN/Inf folded into a "
                "counter would poison every later delta)");
  slot(counters_, name) += delta;
}

void MetricsRegistry::observe(std::string_view name, double value) {
  observe_n(name, value, 1);
}

void MetricsRegistry::observe_n(std::string_view name, double value,
                                long long n) {
  if (!std::isfinite(value))
    throw Error("MetricsRegistry::observe('" + std::string(name) +
                "'): non-finite sample rejected");
  if (value < 0.0)
    throw Error("MetricsRegistry::observe('" + std::string(name) +
                "'): negative sample rejected (distributions hold "
                "durations, bytes and residuals, all >= 0)");
  slot(dists_, name).record_n(value, n);
}

double MetricsRegistry::count(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

const insight::Histogram* MetricsRegistry::distribution(
    std::string_view name) const {
  const auto it = dists_.find(name);
  return it == dists_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::empty() const {
  return link_heat_.empty() && qpi_heat_.empty() && channels_.empty() &&
         counters_.empty() && dists_.empty();
}

std::string MetricsRegistry::csv() const {
  const auto num = [](double v) { return format_number(v); };
  bench::CsvWriter w;
  w.set_header({"category", "key", "count", "total", "peak"});
  for (const auto& [key, h] : link_heat_) {
    w.add_row({"link",
               "cable " + std::to_string(key.first) + " d" +
                   std::to_string(key.second),
               num(static_cast<double>(h.stages)), num(h.total),
               num(h.peak)});
  }
  for (const auto& [key, h] : qpi_heat_) {
    w.add_row({"qpi",
               "node " + std::to_string(key.first) + " d" +
                   std::to_string(key.second),
               num(static_cast<double>(h.stages)), num(h.total),
               num(h.peak)});
  }
  for (const auto& [ch, c] : channels_) {
    w.add_row({"channel", to_string(static_cast<Channel>(ch)),
               num(static_cast<double>(c.transfers)), num(c.bytes),
               num(c.peak_bytes)});
  }
  for (const auto& [name, value] : counters_) {
    w.add_row({"counter", name, "", num(value), ""});
  }
  // Distribution rows append strictly after the legacy categories so a
  // registry without distributions serializes byte-identically to before.
  for (const auto& [name, h] : dists_) {
    w.add_row({"dist", name, num(static_cast<double>(h.count())),
               num(h.approx_sum()), num(h.max())});
    w.add_row({"dist", name + " min", "", num(h.min()), ""});
    for (const auto& spec : insight::kStandardQuantiles) {
      w.add_row({"dist", name + " " + spec.label, "", num(h.quantile(spec.q)),
                 ""});
    }
  }
  for (const auto& [name, h] : dists_) {
    if (h.zero_count() > 0) {
      w.add_row({"distbucket", name + " zero",
                 num(static_cast<double>(h.zero_count())), "0", "0"});
    }
    for (const auto& b : h.buckets()) {
      w.add_row({"distbucket", name + " b" + std::to_string(b.index),
                 num(static_cast<double>(b.count)), num(b.lower),
                 num(b.upper)});
    }
  }
  return w.to_string();
}

}  // namespace tarr::trace
