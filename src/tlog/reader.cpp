#include "tlog/reader.hpp"

#include <cstdio>
#include <limits>

#include "common/error.hpp"
#include "trace/tracer.hpp"

namespace tarr::tlog {

namespace {

/// Bounds-checked little-endian/varint reader over an in-memory byte span.
/// Every overrun or malformed encoding throws a structured tarr::Error, so
/// corrupt files fail loudly instead of reading out of bounds.
class Cursor {
 public:
  Cursor(const char* data, std::size_t len, const char* what)
      : data_(data), len_(len), what_(what) {}

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return len_ - pos_; }
  bool done() const { return pos_ == len_; }

  const char* bytes(std::size_t n) {
    need(n);
    const char* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::uint64_t u64le() {
    const unsigned char* p =
        reinterpret_cast<const unsigned char*>(bytes(8));
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1);
      const auto byte = static_cast<unsigned char>(data_[pos_++]);
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) return v;
    }
    throw Error(std::string("tlog: varint too long in ") + what_);
  }

  std::int64_t svarint() { return unzigzag(varint()); }

  /// varint() checked to fit the target integer range.
  long long count() {
    const std::uint64_t v = varint();
    if (v > 0x7FFFFFFFFFFFFFFFULL)
      throw Error(std::string("tlog: count overflow in ") + what_);
    return static_cast<long long>(v);
  }

 private:
  void need(std::size_t n) const {
    if (len_ - pos_ < n)
      throw Error(std::string("tlog: truncated ") + what_);
  }

  const char* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  const char* what_;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("tlog: cannot open " + path);
  std::string data;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) data.append(buf, n);
  const bool bad = std::ferror(f) != 0;
  std::fclose(f);
  if (bad) throw Error("tlog: read error on " + path);
  return data;
}

/// Fixed trailer: footer length, footer checksum, trailer magic (u64le ×3).
constexpr std::size_t kTrailerBytes = 24;

struct Parsed {
  FileInfo info;
  std::string data;           ///< whole file
  std::size_t blocks_end = 0; ///< file offset where the footer starts
};

Parsed parse(const std::string& path) {
  Parsed p;
  p.data = read_file(path);
  const std::string& d = p.data;
  p.info.file_bytes = d.size();

  if (d.size() < kFileMagic.size() + kTrailerBytes)
    throw Error("tlog: " + path + " too small to be a tlog file (" +
                std::to_string(d.size()) + " bytes)");
  for (std::size_t i = 0; i < kFileMagic.size(); ++i)
    if (static_cast<unsigned char>(d[i]) != kFileMagic[i])
      throw Error("tlog: " + path + " has no TARRTLOG magic");

  Cursor header(d.data() + kFileMagic.size(),
                d.size() - kFileMagic.size() - kTrailerBytes, "header");
  const std::uint64_t version = header.varint();
  if (version != static_cast<std::uint64_t>(kFormatVersion))
    throw Error("tlog: " + path + " has format version " +
                std::to_string(version) + ", this build reads version " +
                std::to_string(kFormatVersion));
  p.info.version = static_cast<int>(version);
  p.info.block_bytes = static_cast<std::size_t>(header.varint());
  const std::size_t body_begin = kFileMagic.size() + header.pos();

  Cursor trailer(d.data() + d.size() - kTrailerBytes, kTrailerBytes,
                 "trailer");
  const std::uint64_t footer_len = trailer.u64le();
  const std::uint64_t footer_sum = trailer.u64le();
  if (trailer.u64le() != kTrailerMagic)
    throw Error("tlog: " + path + " has no trailer magic (truncated?)");
  const std::size_t avail = d.size() - kTrailerBytes - body_begin;
  if (footer_len > avail)
    throw Error("tlog: " + path + " footer length " +
                std::to_string(footer_len) + " exceeds file body");
  p.blocks_end = d.size() - kTrailerBytes - static_cast<std::size_t>(footer_len);
  if (fnv1a(d.data() + p.blocks_end, static_cast<std::size_t>(footer_len)) !=
      footer_sum)
    throw Error("tlog: " + path + " footer checksum mismatch");

  Cursor footer(d.data() + p.blocks_end, static_cast<std::size_t>(footer_len),
                "footer");
  const long long nstrings = footer.count();
  for (long long i = 0; i < nstrings; ++i) {
    const std::uint64_t len = footer.varint();
    if (len > footer.remaining())
      throw Error("tlog: " + path + " string table overruns footer");
    p.info.strings.emplace_back(footer.bytes(static_cast<std::size_t>(len)),
                                static_cast<std::size_t>(len));
  }
  const long long nblocks = footer.count();
  for (long long i = 0; i < nblocks; ++i) {
    BlockInfo b;
    b.offset = footer.varint();
    b.payload_len = footer.varint();
    b.events = footer.count();
    for (long long& c : b.stored) c = footer.count();
    b.min_stage = footer.svarint();
    b.max_stage = footer.svarint();
    if (b.offset < body_begin || b.offset >= p.blocks_end)
      throw Error("tlog: " + path + " block offset out of range");
    for (std::size_t k = 0; k < b.stored.size(); ++k) {
      if (b.stored[k] >
          std::numeric_limits<long long>::max() - p.info.stored[k])
        throw Error("tlog: " + path + " per-kind event counts overflow");
      p.info.stored[k] += b.stored[k];
    }
    p.info.blocks.push_back(b);
  }
  if (!footer.done())
    throw Error("tlog: " + path + " has trailing bytes in footer");
  return p;
}

/// True when the footer index proves no stored event of `b` can pass `f`.
bool skip_block(const BlockInfo& b, const EventFilter& f) {
  for (int k = 0; k < kNumEventKinds; ++k) {
    if (b.stored[static_cast<std::size_t>(k)] == 0) continue;
    const auto kind = static_cast<EventKind>(k);
    if (!f.pass_kind(kind)) continue;
    const bool stage_tagged =
        kind == EventKind::Stage || kind == EventKind::Transfer;
    if (stage_tagged && b.has_stage() &&
        (b.min_stage > f.max_stage || b.max_stage < f.min_stage))
      continue;  // every stage-tagged event sits outside the window
    return false;
  }
  return true;
}

/// Decoder for one block payload; mirrors the encoders in writer.cpp field
/// slot by field slot.
class BlockDecoder {
 public:
  BlockDecoder(const Parsed& p, const BlockInfo& b)
      : strings_(p.info.strings),
        cur_(p.data.data() + payload_offset(p, b),
             static_cast<std::size_t>(b.payload_len), "block payload") {}

  /// Offset of the payload behind the block header, cross-checking the
  /// header against the index entry and the payload checksum.
  static std::size_t payload_offset(const Parsed& p, const BlockInfo& b) {
    Cursor h(p.data.data() + b.offset,
             p.blocks_end - static_cast<std::size_t>(b.offset),
             "block header");
    if (h.varint() != b.payload_len)
      throw Error("tlog: block header disagrees with index (payload length)");
    h.varint();  // event count, validated by decode exhaustion
    const std::uint64_t sum = h.varint();
    const std::size_t off = static_cast<std::size_t>(b.offset) + h.pos();
    if (b.payload_len > p.blocks_end - off)
      throw Error("tlog: block payload overruns blocks section");
    if (fnv1a(p.data.data() + off, static_cast<std::size_t>(b.payload_len)) !=
        sum)
      throw Error("tlog: block checksum mismatch (corrupt block)");
    return off;
  }

  /// Decode one event; deliver it to `sink` iff it passes `f`.  Returns the
  /// kind decoded, or Count-of-kinds when the payload is exhausted.
  bool step(trace::TraceSink& sink, const EventFilter& f, EventKind& kind) {
    if (cur_.done()) return false;
    const int tag = static_cast<unsigned char>(*cur_.bytes(1));
    if (tag >= kNumEventKinds)
      throw Error("tlog: unknown event tag " + std::to_string(tag));
    kind = static_cast<EventKind>(tag);
    auto& c = ctx_[static_cast<std::size_t>(kind)];
    const bool want = f.pass_kind(kind);
    switch (kind) {
      case EventKind::Stage: {
        trace::StageEvent e;
        e.stage = static_cast<int>(c.apply_int_delta(0, cur_.svarint()));
        e.transfers = static_cast<int>(c.apply_int_delta(1, cur_.svarint()));
        e.repeats = static_cast<int>(c.apply_int_delta(2, cur_.svarint()));
        e.start = c.apply_bits_xor(0, cur_.varint());
        e.duration = c.apply_bits_xor(1, cur_.varint());
        e.retry_wait = c.apply_bits_xor(2, cur_.varint());
        const long long n = cur_.count();
        if (static_cast<std::uint64_t>(n) > cur_.remaining())
          throw Error("tlog: load count exceeds remaining payload");
        loads_.clear();
        for (long long i = 0; i < n; ++i) {
          trace::Load l;
          const std::int64_t qpi = c.apply_int_delta(3, cur_.svarint());
          l.id = static_cast<int>(c.apply_int_delta(4, cur_.svarint()));
          const std::int64_t dir = c.apply_int_delta(5, cur_.svarint());
          if (qpi != 0 && qpi != 1)
            throw Error("tlog: load qpi flag " + std::to_string(qpi) +
                        " is neither 0 nor 1");
          if (dir != 0 && dir != 1)
            throw Error("tlog: load direction " + std::to_string(dir) +
                        " is neither 0 nor 1");
          l.qpi = qpi == 1;
          l.dir = static_cast<int>(dir);
          l.bytes = c.apply_bits_xor(3, cur_.varint());
          loads_.push_back(l);
        }
        e.loads = loads_;
        if (want && f.pass_stage(e.stage)) {
          sink.on_stage(e);
          return true;
        }
        break;
      }
      case EventKind::Transfer: {
        trace::TransferEvent e;
        e.stage = static_cast<int>(c.apply_int_delta(0, cur_.svarint()));
        e.src_rank = static_cast<Rank>(c.apply_int_delta(1, cur_.svarint()));
        e.dst_rank = static_cast<Rank>(c.apply_int_delta(2, cur_.svarint()));
        e.src_core = static_cast<CoreId>(c.apply_int_delta(3, cur_.svarint()));
        e.dst_core = static_cast<CoreId>(c.apply_int_delta(4, cur_.svarint()));
        e.bytes = c.apply_int_delta(5, cur_.svarint());
        e.channel = static_cast<trace::Channel>(
            c.apply_int_delta(6, cur_.svarint()));
        e.attempts = static_cast<int>(c.apply_int_delta(7, cur_.svarint()));
        e.contention = c.apply_bits_xor(0, cur_.varint());
        e.start = c.apply_bits_xor(1, cur_.varint());
        e.duration = c.apply_bits_xor(2, cur_.varint());
        e.uncontended = c.apply_bits_xor(3, cur_.varint());
        if (e.src_rank < 0 || e.dst_rank < 0 || e.src_core < 0 ||
            e.dst_core < 0)
          throw Error("tlog: transfer names a negative rank or core");
        const long long n = cur_.count();
        if (static_cast<std::uint64_t>(n) > cur_.remaining())
          throw Error("tlog: copy count exceeds remaining payload");
        copies_.clear();
        for (long long i = 0; i < n; ++i) {
          trace::Copy cp;
          cp.stage = e.stage;
          cp.src = e.src_rank;
          cp.dst = e.dst_rank;
          cp.src_off = static_cast<int>(c.apply_int_delta(8, cur_.svarint()));
          cp.dst_off = static_cast<int>(c.apply_int_delta(9, cur_.svarint()));
          cp.nblocks = static_cast<int>(c.apply_int_delta(10, cur_.svarint()));
          cp.bytes = c.apply_int_delta(11, cur_.svarint());
          const std::int64_t combining = c.apply_int_delta(12, cur_.svarint());
          if (combining != 0 && combining != 1)
            throw Error("tlog: copy combine flag " +
                        std::to_string(combining) + " is neither 0 nor 1");
          cp.combining = combining == 1;
          copies_.push_back(cp);
        }
        e.copies = copies_;
        if (want && f.pass_stage(e.stage) &&
            f.pass_rank(e.src_rank, e.dst_rank)) {
          sink.on_transfer(e);
          return true;
        }
        break;
      }
      case EventKind::Phase: {
        trace::PhaseEvent e;
        e.name = string_at(cur_.varint());
        e.start = c.apply_bits_xor(0, cur_.varint());
        e.duration = c.apply_bits_xor(1, cur_.varint());
        if (want) {
          sink.on_phase(e);
          return true;
        }
        break;
      }
      case EventKind::WallSpan: {
        trace::WallSpan s;
        s.name = string_at(cur_.varint());
        s.seconds = c.apply_bits_xor(0, cur_.varint());
        if (want) {
          sink.on_wall_span(s);
          return true;
        }
        break;
      }
      case EventKind::Time: {
        trace::TimeEvent e;
        e.what = string_at(cur_.varint());
        e.start = c.apply_bits_xor(0, cur_.varint());
        e.duration = c.apply_bits_xor(1, cur_.varint());
        const long long n = cur_.count();
        if (static_cast<std::uint64_t>(n) > cur_.remaining())
          throw Error("tlog: permutation longer than remaining payload");
        perm_.clear();
        std::uint64_t prev = 0;  // wraps, like the field deltas
        for (long long i = 0; i < n; ++i) {
          prev += static_cast<std::uint64_t>(cur_.svarint());
          perm_.push_back(static_cast<int>(static_cast<std::int64_t>(prev)));
        }
        e.dst_of_block = perm_;
        if (want) {
          sink.on_time(e);
          return true;
        }
        break;
      }
      case EventKind::Count: {
        const std::string& name = string_at(cur_.varint());
        const double delta = c.apply_bits_xor(0, cur_.varint());
        if (want) {
          sink.add_count(name, delta);
          return true;
        }
        break;
      }
      case EventKind::Observe: {
        const std::string& name = string_at(cur_.varint());
        const double value = c.apply_bits_xor(0, cur_.varint());
        if (want) {
          sink.observe(name, value);
          return true;
        }
        break;
      }
    }
    kind = static_cast<EventKind>(kNumEventKinds);  // decoded but filtered
    return true;
  }

  bool done() const { return cur_.done(); }

 private:
  const std::string& string_at(std::uint64_t id) {
    if (id >= strings_.size())
      throw Error("tlog: string id " + std::to_string(id) +
                  " outside the footer table (" +
                  std::to_string(strings_.size()) + " entries)");
    return strings_[static_cast<std::size_t>(id)];
  }

  const std::vector<std::string>& strings_;
  Cursor cur_;
  std::array<FieldContext, kNumEventKinds> ctx_{};
  /// Storage behind the spans of the event being delivered.
  std::vector<trace::Load> loads_;
  std::vector<trace::Copy> copies_;
  std::vector<int> perm_;
};

}  // namespace

FileInfo read_info(const std::string& path) { return parse(path).info; }

ReplayStats replay(const std::string& path, trace::TraceSink& sink,
                   const EventFilter& filter) {
  const Parsed p = parse(path);
  ReplayStats stats;
  stats.blocks_total = static_cast<long long>(p.info.blocks.size());
  for (const BlockInfo& b : p.info.blocks) {
    if (skip_block(b, filter)) {
      ++stats.blocks_skipped;
      continue;
    }
    ++stats.blocks_decoded;
    BlockDecoder dec(p, b);
    long long decoded = 0;
    EventKind kind{};
    while (dec.step(sink, filter, kind)) {
      ++decoded;
      if (static_cast<int>(kind) < kNumEventKinds)
        ++stats.delivered[static_cast<std::size_t>(kind)];
    }
    if (decoded != b.events)
      throw Error("tlog: block decoded " + std::to_string(decoded) +
                  " events, index says " + std::to_string(b.events));
  }
  return stats;
}

trace::ScheduleRecord read_record(const std::string& path) {
  trace::Tracer tracer;
  replay(path, tracer);
  return tracer.take();
}

}  // namespace tarr::tlog
