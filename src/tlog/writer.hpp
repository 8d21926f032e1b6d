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
/// the buffering Tracer cannot.  The block size (TlogOptions::block_bytes)
/// is the one knob: the memory/seek-granularity trade.
///
/// A `.tlog` is a lossless capture: replaying it (tlog/reader.hpp) into a
/// trace::Tracer rebuilds a ScheduleRecord byte-identical to live
/// recording and reproduces its JSON timeline and metrics CSV
/// byte-for-byte.  Selecting events is the
/// reader's job (replay()'s EventFilter).
///
/// Call finish() when the run is over — it flushes the last block and
/// writes the footer index; a file without a footer is rejected by the
/// reader.  Event handlers never throw on I/O failure: the engine emits
/// from destructors (phase scopes), where a throw during unwinding would
/// terminate the process.  The sink instead keeps its first write failure,
/// stops writing, and finish() throws it.  The destructor calls finish()
/// as a best effort but swallows errors; call finish() explicitly to
/// observe them.

namespace tarr::tlog {

/// Behavior knobs of a TlogSink.
struct TlogOptions {
  /// Target encoded payload bytes per block; a block is flushed once it
  /// reaches this size (the last event may overshoot by its own encoding).
  std::size_t block_bytes = 64 * 1024;
};

/// Bookkeeping of one writer's lifetime: the events on disk per kind (the
/// sum of the footer's per-block counts) and the file bytes written.
struct WriteTotals {
  std::array<long long, kNumEventKinds> stored{};
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
  /// Opens `path` for writing and writes the header; throws tarr::Error
  /// when `path` cannot be opened or on a block size below 512 bytes (too
  /// small to hold a single large event sensibly).
  explicit TlogSink(const std::string& path, TlogOptions opts = TlogOptions{});
  ~TlogSink() override;

  TlogSink(const TlogSink&) = delete;
  TlogSink& operator=(const TlogSink&) = delete;

  void on_stage(const trace::StageEvent& e) override;
  void on_transfer(const trace::TransferEvent& e) override;
  void on_phase(const trace::PhaseEvent& e) override;
  void on_wall_span(const trace::WallSpan& s) override;
  void on_time(const trace::TimeEvent& e) override;
  void add_count(const std::string& name, double delta) override;
  void observe(const std::string& name, double value) override;

  /// Flush the open block, write the footer + trailer and close the file;
  /// the file is complete and readable afterwards.  Throws tarr::Error
  /// naming the path on the first write failure of the whole capture, or
  /// when closing fails.  Idempotent.  Events arriving after finish() throw
  /// (the file is sealed).
  void finish();
  bool finished() const { return finished_; }

  const WriteTotals& totals() const { return totals_; }
  const std::string& path() const { return path_; }

 private:
  /// Counts the event and returns true when it must be encoded (false once
  /// a write has failed).  Throws after finish().
  bool admit(EventKind k);

  /// Start a record: tag byte plus bookkeeping of the block's stage range.
  /// `stage` < 0 means the kind carries no stage.
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
  std::string error_;  ///< first write failure; "" while every write held

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

  WriteTotals totals_;
};

}  // namespace tarr::tlog
