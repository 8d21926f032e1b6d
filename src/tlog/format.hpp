#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <string>

#include "common/types.hpp"

/// \file format.hpp
/// On-disk vocabulary of tarr::tlog, the bounded-memory streaming binary
/// trace format (docs/TLOG.md has the normative byte-level specification).
///
/// Every observability layer before this one (trace -> report -> viz ->
/// prof -> insight) buffers the full event stream in memory and exports
/// Chrome-trace JSON, which caps traced runs near the current rank ceiling.
/// A `.tlog` file instead streams the same TraceSink event vocabulary
/// through bounded-size blocks:
///
///   [header] [block]* [footer index] [trailer]
///
///   header  — 8-byte magic "TARRTLOG", varint version, varint block size.
///   block   — varint payload length, varint event count, varint FNV-1a
///             checksum, then the payload: one tagged record per event,
///             integer fields zigzag-delta-coded and double fields
///             XOR-delta-coded against the previous value of the same field
///             slot (both reset at block boundaries, so any block decodes
///             on its own).
///   footer  — the interned string table and one index entry per block
///             (offset, length, per-kind stored counts, stage range).
///   trailer — fixed 24 bytes: little-endian footer length, footer
///             checksum and magic, so a reader finds (and verifies) the
///             footer from the end of the file.
///
/// Strings (phase names, counter names, ...) are interned to dense ids by
/// the writer and stored once, in the footer — blocks carry only ids, and
/// selective decode never misses a definition.  All doubles round-trip
/// bit-exactly (XOR delta is lossless), which is what makes a
/// `ScheduleRecord` rebuilt from a `.tlog` byte-identical to live
/// recording.

namespace tarr::tlog {

/// Leading file magic ("TARRTLOG").
inline constexpr std::array<unsigned char, 8> kFileMagic = {
    'T', 'A', 'R', 'R', 'T', 'L', 'O', 'G'};

/// Trailing magic of the fixed 24-byte trailer ("TLOGIDX\n").
inline constexpr std::uint64_t kTrailerMagic = 0x0A58444947'4F4C54ULL;

/// Format version this build writes and the only one it reads.
inline constexpr int kFormatVersion = 4;

/// Every record type the format stores — the five TraceSink event kinds
/// plus the two named-metric emissions (add_count / observe), so a `.tlog`
/// is a lossless capture of everything a TraceSink can hear.  A stage
/// record carries the stage's loads, a transfer record its copies and a
/// time record its permutation.
enum class EventKind : int {
  Stage = 0,
  Transfer = 1,
  Phase = 2,
  WallSpan = 3,
  Time = 4,
  Count = 5,
  Observe = 6,
};

inline constexpr int kNumEventKinds = 7;

const char* to_string(EventKind k);

/// Parse a kind name as printed by to_string ("stage", "transfer", ...).
/// Returns false on an unknown name.
bool parse_event_kind(const std::string& name, EventKind& out);

/// Reader-side event predicate (replay()'s filter): which kinds to keep, and
/// for stage-tagged kinds (stage/transfer; a stage's loads and a
/// transfer's copies go with it) and the rank-tagged kind (transfer) which
/// stage/rank windows.  The default passes everything.  Filtering is
/// deterministic — a pure function of the event.
struct EventFilter {
  /// Bit `1 << kind` keeps that kind.
  unsigned kinds = (1u << kNumEventKinds) - 1;
  /// Inclusive stage window, applied to stage/transfer events only.
  int min_stage = 0;
  int max_stage = std::numeric_limits<int>::max();
  /// Inclusive rank window, applied to transfer events; an event passes
  /// when either endpoint falls inside the window.
  Rank min_rank = 0;
  Rank max_rank = std::numeric_limits<Rank>::max();

  bool pass_kind(EventKind k) const {
    return (kinds & (1u << static_cast<int>(k))) != 0;
  }
  bool pass_stage(int stage) const {
    return stage >= min_stage && stage <= max_stage;
  }
  bool pass_rank(Rank a, Rank b) const {
    return (a >= min_rank && a <= max_rank) ||
           (b >= min_rank && b <= max_rank);
  }
};

// --- low-level encoding ----------------------------------------------------

/// Append an LEB128 varint (7 bits per byte, high bit = continuation).
void put_varint(std::string& out, std::uint64_t v);

/// Append a zigzag-coded signed varint.
void put_svarint(std::string& out, std::int64_t v);

/// Zigzag helpers (exposed for the index entries).
inline std::uint64_t zigzag(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}
inline std::int64_t unzigzag(std::uint64_t v) {
  return static_cast<std::int64_t>(v >> 1) ^
         -static_cast<std::int64_t>(v & 1);
}

/// FNV-1a 64-bit checksum of a byte string (block corruption detection).
std::uint64_t fnv1a(const char* data, std::size_t len);

/// Per-field delta context shared by the encoder and the decoder: slot i
/// remembers the previous integer value (for zigzag deltas) and slot j the
/// previous double bit pattern (for XOR deltas).  Both sides walk the same
/// slots in the same order; reset() at every block boundary keeps blocks
/// independently decodable.
class FieldContext {
 public:
  void reset() {
    ints_.fill(0);
    bits_.fill(0);
  }

  /// Encode integer field `slot` as a zigzag delta against its previous
  /// value.
  void put_int(std::string& out, int slot, std::int64_t v) {
    put_svarint(out, v - ints_[static_cast<std::size_t>(slot)]);
    ints_[static_cast<std::size_t>(slot)] = v;
  }

  /// Encode double field `slot` as a varint of the XOR with its previous
  /// bit pattern (lossless; repeated values cost one byte).
  void put_double(std::string& out, int slot, double v);

  /// Decoder twins (Cursor defined in reader.hpp includes this header's
  /// declarations via the .cpp files).
  /// Wraps modulo 2^64, so a corrupt delta cannot overflow.
  std::int64_t apply_int_delta(int slot, std::int64_t delta) {
    std::int64_t& v = ints_[static_cast<std::size_t>(slot)];
    v = static_cast<std::int64_t>(static_cast<std::uint64_t>(v) +
                                  static_cast<std::uint64_t>(delta));
    return v;
  }
  double apply_bits_xor(int slot, std::uint64_t x);

 private:
  /// Largest per-kind field counts: Transfer has 13 integer fields, its
  /// copies' included, and 4 double fields; Stage has 6 integer and 4
  /// double fields, its loads' included.
  std::array<std::int64_t, 13> ints_{};
  std::array<std::uint64_t, 4> bits_{};
};

}  // namespace tarr::tlog
