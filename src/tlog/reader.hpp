#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tlog/format.hpp"
#include "trace/record.hpp"
#include "trace/sink.hpp"

/// \file reader.hpp
/// Reading side of tarr::tlog: footer-index inspection (read_info), event
/// replay into any TraceSink (replay), and ScheduleRecord reconstruction
/// (read_record).
///
/// Replay decodes blocks in file order and re-delivers each stored event to
/// the given sink in its original emission order, so every existing
/// consumer — trace::ScheduleRecorder, trace::Tracer, insight — works on a
/// `.tlog` unchanged.  A reader-side EventFilter skips whole blocks when
/// the footer index proves no stored event can pass (kind mask, or a stage
/// window disjoint from the block's stage range); rank windows decode the
/// block and filter per event, since the index carries no rank ranges.
///
/// Every malformed input — truncation, bit flips, bad magic, impossible
/// lengths — surfaces as a structured tarr::Error; the reader never trusts
/// a length or id without bounds-checking it first.

namespace tarr::tlog {

/// Footer index entry of one block, as read back (see TlogSink::BlockEntry).
struct BlockInfo {
  std::uint64_t offset = 0;       ///< file offset of the block header
  std::uint64_t payload_len = 0;  ///< encoded payload bytes
  long long events = 0;
  std::array<long long, kNumEventKinds> stored{};
  long long min_stage = 0;  ///< min > max: no stage-tagged events in block
  long long max_stage = -1;
  bool has_stage() const { return min_stage <= max_stage; }
};

/// Everything the header + footer say about a `.tlog` file.
struct FileInfo {
  int version = 0;
  std::size_t block_bytes = 0;   ///< writer's block-size knob
  int sample_every = 1;
  EventFilter filter;            ///< the writer-side filter that was active
  std::vector<std::string> strings;
  std::vector<BlockInfo> blocks;
  /// Exact per-kind bookkeeping (stored = received - filtered - sampled_out).
  std::array<long long, kNumEventKinds> received{};
  std::array<long long, kNumEventKinds> filtered{};
  std::array<long long, kNumEventKinds> sampled_out{};
  std::array<long long, kNumEventKinds> stored{};
  std::uint64_t file_bytes = 0;

  long long stored_events() const {
    long long n = 0;
    for (const long long c : stored) n += c;
    return n;
  }
};

/// Parse header + footer without decoding any block.  Throws tarr::Error on
/// any malformation.
FileInfo read_info(const std::string& path);

/// Reader-side selection for replay().
struct ReplayOptions {
  EventFilter filter;
};

/// What one replay() actually did — lets callers (and tests) see selective
/// decode at work.
struct ReplayStats {
  long long blocks_total = 0;
  long long blocks_decoded = 0;
  long long blocks_skipped = 0;  ///< skipped via the footer index
  std::array<long long, kNumEventKinds> delivered{};

  long long delivered_events() const {
    long long n = 0;
    for (const long long c : delivered) n += c;
    return n;
  }
};

/// Decode `path` and deliver every stored event passing opts.filter to
/// `sink`, preserving the original emission order.  Throws tarr::Error on
/// any malformation (including per-block checksum mismatches).
ReplayStats replay(const std::string& path, trace::TraceSink& sink,
                   const ReplayOptions& opts = ReplayOptions{});

/// Rebuild the ScheduleRecord of the recorded run by replaying the full
/// event stream into a fresh trace::ScheduleRecorder.  On an unfiltered,
/// unsampled `.tlog` the result is byte-identical to live recording.
trace::ScheduleRecord read_record(const std::string& path);

}  // namespace tarr::tlog
