// tarr log — queries over `.tlog` streaming binary traces (docs/TLOG.md):
//   info FILE   header + footer-index summary without decoding any block:
//               per-kind stored counts and the per-block index
//   cat FILE    decode the selected events and re-render them through the
//               Tracer serializers: --json the Chrome timeline, --metrics the
//               metrics CSV, the timeline to stdout when neither is given
//   stats FILE  --by rank|stage|channel transfer aggregates, computed with
//               selective block decode (the skip count goes to stderr)
// cat and stats take --kinds K1,K2,..., --stages LO:HI and --ranks LO:HI
// filters.  Same file + same flags -> byte-identical output.

#include <cstdio>
#include <limits>
#include <map>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "driver.hpp"
#include "tlog/reader.hpp"

namespace tarr::driver {
namespace {

/// Parse "LO:HI" (or a single "N" meaning N:N) into an inclusive window.
void parse_window(const std::string& opt, const std::string& v, int& lo,
                  int& hi) {
  constexpr int kMax = std::numeric_limits<int>::max();
  const std::size_t colon = v.find(':');
  lo = static_cast<int>(
      cli::parse_int(opt, v.substr(0, colon).c_str(), 0, kMax));
  hi = colon == std::string::npos
           ? lo
           : static_cast<int>(
                 cli::parse_int(opt, v.substr(colon + 1).c_str(), 0, kMax));
  if (lo > hi) throw cli::UsageError(opt + ": empty window " + v);
}

/// The FILE operand and the --kinds/--stages/--ranks filter.
tlog::EventFilter parse_filter(const Flags& f, std::string& path) {
  const std::vector<std::string> files = f.positionals();
  if (files.size() != 1) throw cli::UsageError("expected one FILE");
  path = files[0];
  tlog::EventFilter filter;
  for (const auto& [flag, value] : f.items()) {
    if (flag == "--stages") {
      parse_window(flag, value, filter.min_stage, filter.max_stage);
    } else if (flag == "--ranks") {
      parse_window(flag, value, filter.min_rank, filter.max_rank);
    } else if (flag == "--kinds") {
      filter.kinds = 0;
      std::size_t start = 0;
      while (start <= value.size()) {
        std::size_t comma = value.find(',', start);
        if (comma == std::string::npos) comma = value.size();
        const std::string name = value.substr(start, comma - start);
        tlog::EventKind k;
        if (!tlog::parse_event_kind(name, k))
          throw cli::UsageError(flag + ": unknown event kind '" + name + "'");
        filter.kinds |= 1u << static_cast<int>(k);
        start = comma + 1;
      }
    }
  }
  return filter;
}

/// Transfer aggregator behind `tarr log stats`.
class StatsSink final : public trace::TraceSink {
 public:
  enum class By { Rank, Stage, Channel };

  explicit StatsSink(By by) : by_(by) {}

  void on_transfer(const trace::TransferEvent& e) override {
    Row& r = rows_[key_of(e)];
    r.transfers += 1;
    r.bytes += e.bytes;
    r.duration += e.duration;
    r.stall += e.duration - e.uncontended;
  }

  std::string csv() const {
    std::string out = "key,transfers,bytes,duration_us,stall_us\n";
    char buf[160];
    for (const auto& [key, r] : rows_) {
      std::snprintf(buf, sizeof buf, "%s,%lld,%lld,", key.c_str(),
                    r.transfers, r.bytes);
      out += buf;
      append_number(out, r.duration);
      out += ',';
      append_number(out, r.stall);
      out += '\n';
    }
    return out;
  }

 private:
  struct Row {
    long long transfers = 0;
    long long bytes = 0;
    double duration = 0.0;
    double stall = 0.0;
  };

  /// Map keys are zero-padded so lexicographic map order is numeric order.
  std::string key_of(const trace::TransferEvent& e) const {
    if (by_ == By::Channel) return trace::to_string(e.channel);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%08d",
                  by_ == By::Rank ? e.src_rank : e.stage);
    return buf;
  }

  By by_;
  std::map<std::string, Row> rows_;
};

}  // namespace

int cmd_log_info(const Flags& f) {
  std::string path;
  parse_filter(f, path);
  const tlog::FileInfo info = tlog::read_info(path);
  std::printf("%s: tlog v%d, %llu bytes, %zu blocks, %zu interned strings\n",
              path.c_str(), info.version,
              static_cast<unsigned long long>(info.file_bytes),
              info.blocks.size(), info.strings.size());
  std::printf("block size %zu bytes\n", info.block_bytes);

  TextTable kinds;
  kinds.set_header({"kind", "stored"});
  for (int k = 0; k < tlog::kNumEventKinds; ++k) {
    const auto ki = static_cast<std::size_t>(k);
    if (info.stored[ki] == 0) continue;
    kinds.add_row({tlog::to_string(static_cast<tlog::EventKind>(k)),
                   std::to_string(info.stored[ki])});
  }
  std::fputs(kinds.render().c_str(), stdout);

  TextTable blocks;
  blocks.set_header({"block", "offset", "bytes", "events", "stages"});
  for (std::size_t b = 0; b < info.blocks.size(); ++b) {
    const tlog::BlockInfo& e = info.blocks[b];
    blocks.add_row(
        {std::to_string(b), std::to_string(e.offset),
         std::to_string(e.payload_len), std::to_string(e.events),
         e.has_stage() ? std::to_string(e.min_stage) + ":" +
                             std::to_string(e.max_stage)
                       : "-"});
  }
  std::fputs(blocks.render().c_str(), stdout);
  return 0;
}

int cmd_log_cat(const Flags& f) {
  std::string path;
  const tlog::EventFilter filter = parse_filter(f, path);
  Obs obs(f, /*traced=*/true);
  const tlog::ReplayStats stats = tlog::replay(path, *obs.tracer, filter);
  if (!f.has("--json") && !f.has("--metrics"))
    std::fputs(obs.tracer->timeline_json().c_str(), stdout);
  if (const std::string p = obs.path("--json"); !p.empty())
    write_file(p, obs.tracer->timeline_json());
  obs.write_trace(/*print=*/false);
  std::fprintf(stderr,
               "tarr log: delivered %lld events, decoded %lld/%lld blocks "
               "(%lld skipped via index)\n",
               stats.delivered_events(), stats.blocks_decoded,
               stats.blocks_total, stats.blocks_skipped);
  return 0;
}

int cmd_log_stats(const Flags& f) {
  std::string path;
  tlog::EventFilter filter = parse_filter(f, path);
  const std::string by = f.str("--by");
  if (by.empty()) throw cli::UsageError("stats requires --by");
  StatsSink::By group;
  if (by == "rank") {
    group = StatsSink::By::Rank;
  } else if (by == "stage") {
    group = StatsSink::By::Stage;
  } else if (by == "channel") {
    group = StatsSink::By::Channel;
  } else {
    throw cli::UsageError("stats --by: expected rank|stage|channel, got '" +
                          by + "'");
  }
  // Only transfers feed the aggregates; narrowing the kind mask is what
  // lets the reader skip transfer-free blocks outright.
  filter.kinds &= 1u << static_cast<int>(tlog::EventKind::Transfer);
  StatsSink sink(group);
  const tlog::ReplayStats stats = tlog::replay(path, sink, filter);
  std::fputs(sink.csv().c_str(), stdout);
  std::fprintf(stderr,
               "tarr log: decoded %lld/%lld blocks (%lld skipped via index)\n",
               stats.blocks_decoded, stats.blocks_total,
               stats.blocks_skipped);
  return 0;
}

}  // namespace tarr::driver
