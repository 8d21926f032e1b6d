#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "tlog/format.hpp"
#include "trace/sink.hpp"

/// \file writer.hpp
/// TlogSink: the streaming binary trace writer of tarr::tlog.
///
/// A TraceSink that encodes every event it hears into the `.tlog` block
/// format (tlog/format.hpp, docs/TLOG.md) and flushes blocks to disk as
/// they fill, so resident memory is O(block size + interned strings +
/// per-block index), independent of the event count — the property that
/// lets always-on telemetry survive the ROADMAP's 64k+-rank runs, where
/// the buffering Tracer cannot.
///
/// Three volume knobs, all deterministic:
///  * EventFilter — drop whole kinds, stage windows or rank windows at the
///    writer (the dropped counts are still bookkept exactly);
///  * 1-in-N sampling (TlogOptions::sample_every) on the four high-volume
///    kinds (transfer/copy/counter/observe): every Nth event of a kind is
///    kept, counting from the first, and the exact number of sampled-out
///    events per kind is recorded in the footer so downstream event totals
///    remain reconstructable;
///  * block size — the memory/seek-granularity trade.
///
/// With the default options (no filter, no sampling) a `.tlog` is a
/// lossless capture: replaying it (tlog/reader.hpp) into a
/// trace::ScheduleRecorder rebuilds a ScheduleRecord byte-identical to
/// live recording, and replaying into a trace::Tracer reproduces its JSON
/// timeline and metrics CSV byte-for-byte.
///
/// Call finish() when the run is over — it flushes the last block and
/// writes the footer index; a file without a footer is rejected by the
/// reader.  The destructor calls finish() as a best effort but swallows
/// errors; call finish() explicitly to observe them.

namespace tarr::tlog {

/// Behavior knobs of a TlogSink.
struct TlogOptions {
  /// Target encoded payload bytes per block; a block is flushed once it
  /// reaches this size (the last event may overshoot by its own encoding).
  std::size_t block_bytes = 64 * 1024;
  /// Writer-side event predicate (default: keep everything).
  EventFilter filter;
  /// Keep every Nth transfer/copy/counter/observe event (1 = keep all).
  int sample_every = 1;
};

/// Exact bookkeeping of one writer's lifetime, also serialized into the
/// footer: received = events offered to the sink, filtered = dropped by the
/// EventFilter, sampled_out = dropped by 1-in-N sampling, stored =
/// received - filtered - sampled_out (the events on disk).
struct WriteTotals {
  std::array<long long, kNumEventKinds> received{};
  std::array<long long, kNumEventKinds> filtered{};
  std::array<long long, kNumEventKinds> sampled_out{};
  std::array<long long, kNumEventKinds> stored{};
  long long blocks = 0;
  std::uint64_t bytes = 0;  ///< file bytes written so far

  long long stored_events() const {
    long long n = 0;
    for (const long long c : stored) n += c;
    return n;
  }
};

/// See file comment.
class TlogSink final : public trace::TraceSink {
 public:
  /// Opens `path` for writing and writes the header; throws tarr::Error on
  /// I/O failure, non-positive sample_every, or a block size below 512
  /// bytes (too small to hold a single large event sensibly).
  explicit TlogSink(const std::string& path, TlogOptions opts = TlogOptions{});
  ~TlogSink() override;

  TlogSink(const TlogSink&) = delete;
  TlogSink& operator=(const TlogSink&) = delete;

  void on_stage(const trace::StageEvent& e) override;
  void on_transfer(const trace::TransferEvent& e) override;
  void on_copy(const trace::CopyEvent& e) override;
  void on_permute(const trace::PermuteEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_counter(const trace::CounterSample& s) override;
  void on_wall_span(const trace::WallSpan& s) override;
  void on_time(const trace::TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

  /// Flush the open block and write the footer + trailer; the file is
  /// complete and readable afterwards.  Idempotent.  Events arriving after
  /// finish() throw (the file is sealed).
  void finish();
  bool finished() const { return finished_; }

  const WriteTotals& totals() const { return totals_; }
  const std::string& path() const { return path_; }

 private:
  /// True for the event kinds 1-in-N sampling applies to.
  static bool sampled_kind(EventKind k) {
    return k == EventKind::Transfer || k == EventKind::Copy ||
           k == EventKind::Counter || k == EventKind::Observe;
  }

  /// Filter + sampling gate; returns true when the event must be encoded.
  /// `stage` < 0 / ranks < 0 mean "field not applicable to this kind".
  bool admit(EventKind k, int stage, Rank a, Rank b);

  /// Start a record: tag byte plus bookkeeping of the block's stage range.
  std::string& begin_record(EventKind k, int stage);
  /// Flush the block if the open payload reached the threshold.
  void maybe_flush();
  void flush_block();
  std::uint32_t intern(const std::string& s);
  void write_raw(const char* data, std::size_t len);
  void require_open() const;

  std::string path_;
  TlogOptions opts_;
  std::FILE* file_ = nullptr;
  bool finished_ = false;

  std::string block_;                ///< open block payload
  long long block_events_ = 0;
  long long block_min_stage_ = 0;    ///< valid iff block_has_stage_
  long long block_max_stage_ = 0;
  bool block_has_stage_ = false;
  std::array<long long, kNumEventKinds> block_stored_{};
  std::array<FieldContext, kNumEventKinds> ctx_{};

  std::map<std::string, std::uint32_t> intern_ids_;
  std::vector<std::string> strings_;

  /// One footer index entry per flushed block.
  struct BlockEntry {
    std::uint64_t offset = 0;       ///< file offset of the block header
    std::uint64_t payload_len = 0;
    long long events = 0;
    std::array<long long, kNumEventKinds> stored{};
    long long min_stage = 0;  ///< min > max encodes "no stage-tagged events"
    long long max_stage = -1;
  };
  std::vector<BlockEntry> index_;

  std::array<long long, kNumEventKinds> sample_seen_{};
  WriteTotals totals_;
};

}  // namespace tarr::tlog
