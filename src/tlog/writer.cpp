#include "tlog/writer.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "trace/metrics.hpp"

namespace tarr::tlog {

namespace {

/// Append the 8-byte little-endian encoding of `v` (trailer fields only;
/// everything else in the format is varint-coded).
void put_u64le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

}  // namespace

TlogSink::TlogSink(const std::string& path, TlogOptions opts)
    : path_(path), opts_(opts) {
  if (opts_.block_bytes < 512)
    throw Error("tlog: block_bytes must be >= 512, got " +
                std::to_string(opts_.block_bytes));
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) throw Error("tlog: cannot write " + path);
  std::string header(reinterpret_cast<const char*>(kFileMagic.data()),
                     kFileMagic.size());
  put_varint(header, kFormatVersion);
  put_varint(header, opts_.block_bytes);
  write_raw(header.data(), header.size());
  block_.reserve(opts_.block_bytes + 1024);
}

TlogSink::~TlogSink() {
  // Best-effort seal; errors are observable only via an explicit finish().
  try {
    finish();
  } catch (const Error&) {
  }
}

void TlogSink::require_open() const {
  if (finished_)
    throw Error("tlog: event after finish() on " + path_);
}

void TlogSink::write_raw(const char* data, std::size_t len) {
  if (!error_.empty()) return;
  if (std::fwrite(data, 1, len, file_) != len) {
    error_ = "tlog: short write to " + path_;
    return;
  }
  totals_.bytes += len;
}

std::uint32_t TlogSink::intern(const std::string& s) {
  const auto it = intern_ids_.find(s);
  if (it != intern_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  intern_ids_.emplace(s, id);
  strings_.push_back(s);
  return id;
}

bool TlogSink::admit(EventKind k) {
  require_open();
  if (!error_.empty()) return false;
  const auto ki = static_cast<std::size_t>(k);
  ++totals_.stored[ki];
  ++block_stored_[ki];
  ++block_events_;
  return true;
}

std::string& TlogSink::begin_record(EventKind k, int stage) {
  block_.push_back(static_cast<char>(static_cast<int>(k)));
  if (stage >= 0) {
    if (!block_has_stage_) {
      block_min_stage_ = block_max_stage_ = stage;
      block_has_stage_ = true;
    } else {
      block_min_stage_ = std::min<long long>(block_min_stage_, stage);
      block_max_stage_ = std::max<long long>(block_max_stage_, stage);
    }
  }
  return block_;
}

void TlogSink::maybe_flush() {
  if (block_.size() >= opts_.block_bytes) flush_block();
}

void TlogSink::flush_block() {
  if (block_events_ == 0) return;
  BlockEntry entry;
  entry.offset = totals_.bytes;
  entry.payload_len = block_.size();
  entry.events = block_events_;
  entry.stored = block_stored_;
  if (block_has_stage_) {
    entry.min_stage = block_min_stage_;
    entry.max_stage = block_max_stage_;
  }
  std::string header;
  put_varint(header, block_.size());
  put_varint(header, static_cast<std::uint64_t>(block_events_));
  put_varint(header, fnv1a(block_.data(), block_.size()));
  write_raw(header.data(), header.size());
  write_raw(block_.data(), block_.size());
  index_.push_back(entry);

  block_.clear();
  block_events_ = 0;
  block_has_stage_ = false;
  block_stored_.fill(0);
  for (auto& c : ctx_) c.reset();
}

void TlogSink::finish() {
  if (finished_) return;
  flush_block();

  std::string footer;
  put_varint(footer, strings_.size());
  for (const std::string& s : strings_) {
    put_varint(footer, s.size());
    footer.append(s);
  }
  put_varint(footer, index_.size());
  for (const BlockEntry& e : index_) {
    put_varint(footer, e.offset);
    put_varint(footer, e.payload_len);
    put_varint(footer, static_cast<std::uint64_t>(e.events));
    for (const long long c : e.stored)
      put_varint(footer, static_cast<std::uint64_t>(c));
    put_svarint(footer, e.min_stage);
    put_svarint(footer, e.max_stage);
  }

  std::string trailer;
  put_u64le(trailer, footer.size());
  put_u64le(trailer, fnv1a(footer.data(), footer.size()));
  put_u64le(trailer, kTrailerMagic);

  write_raw(footer.data(), footer.size());
  write_raw(trailer.data(), trailer.size());
  const int rc = std::fclose(file_);
  file_ = nullptr;
  finished_ = true;
  if (!error_.empty()) throw Error(error_);
  if (rc != 0) throw Error("tlog: failed closing " + path_);
}

// --- event encoders --------------------------------------------------------
//
// Field order is the decode contract (tlog/reader.cpp mirrors it exactly);
// integer slots and double slots are numbered independently per kind.

void TlogSink::on_stage(const trace::StageEvent& e) {
  if (!admit(EventKind::Stage)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Stage)];
  std::string& out = begin_record(EventKind::Stage, e.stage);
  c.put_int(out, 0, e.stage);
  c.put_int(out, 1, e.transfers);
  c.put_int(out, 2, e.repeats);
  c.put_double(out, 0, e.start);
  c.put_double(out, 1, e.duration);
  c.put_double(out, 2, e.retry_wait);
  put_varint(out, e.loads.size());
  for (const trace::Load& l : e.loads) {
    c.put_int(out, 3, l.qpi ? 1 : 0);
    c.put_int(out, 4, l.id);
    c.put_int(out, 5, l.dir);
    c.put_double(out, 3, l.bytes);
  }
  maybe_flush();
}

void TlogSink::on_transfer(const trace::TransferEvent& e) {
  // A copy's stage and endpoints are stored once, on its transfer.
  for (const trace::Copy& cp : e.copies)
    if (cp.stage != e.stage || cp.src != e.src_rank || cp.dst != e.dst_rank)
      throw Error("tlog: a copy's stage or endpoints differ from its "
                  "transfer's");
  if (!admit(EventKind::Transfer)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Transfer)];
  std::string& out = begin_record(EventKind::Transfer, e.stage);
  c.put_int(out, 0, e.stage);
  c.put_int(out, 1, e.src_rank);
  c.put_int(out, 2, e.dst_rank);
  c.put_int(out, 3, e.src_core);
  c.put_int(out, 4, e.dst_core);
  c.put_int(out, 5, e.bytes);
  c.put_int(out, 6, static_cast<int>(e.channel));
  c.put_int(out, 7, e.attempts);
  c.put_double(out, 0, e.contention);
  c.put_double(out, 1, e.start);
  c.put_double(out, 2, e.duration);
  c.put_double(out, 3, e.uncontended);
  put_varint(out, e.copies.size());
  for (const trace::Copy& cp : e.copies) {
    c.put_int(out, 8, cp.src_off);
    c.put_int(out, 9, cp.dst_off);
    c.put_int(out, 10, cp.nblocks);
    c.put_int(out, 11, cp.bytes);
    c.put_int(out, 12, cp.combining ? 1 : 0);
  }
  maybe_flush();
}

void TlogSink::on_phase(const trace::PhaseEvent& e) {
  if (!admit(EventKind::Phase)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Phase)];
  std::string& out = begin_record(EventKind::Phase, -1);
  put_varint(out, intern(e.name));
  c.put_double(out, 0, e.start);
  c.put_double(out, 1, e.duration);
  maybe_flush();
}

void TlogSink::on_wall_span(const trace::WallSpan& s) {
  if (!admit(EventKind::WallSpan)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::WallSpan)];
  std::string& out = begin_record(EventKind::WallSpan, -1);
  put_varint(out, intern(s.name));
  c.put_double(out, 0, s.seconds);
  maybe_flush();
}

void TlogSink::on_time(const trace::TimeEvent& e) {
  if (!admit(EventKind::Time)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Time)];
  std::string& out = begin_record(EventKind::Time, -1);
  put_varint(out, intern(e.what));
  c.put_double(out, 0, e.start);
  c.put_double(out, 1, e.duration);
  put_varint(out, e.dst_of_block.size());
  // Entries are delta-coded against each other (not against the previous
  // event): near-identity permutations encode in ~1 byte per slot.
  std::int64_t prev = 0;
  for (const int d : e.dst_of_block) {
    put_svarint(out, d - prev);
    prev = d;
  }
  maybe_flush();
}

void TlogSink::add_count(const std::string& name, double delta) {
  trace::require_storable(trace::MetricKind::Count, name, delta);
  if (!admit(EventKind::Count)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Count)];
  std::string& out = begin_record(EventKind::Count, -1);
  put_varint(out, intern(name));
  c.put_double(out, 0, delta);
  maybe_flush();
}

void TlogSink::observe(const std::string& name, double value) {
  trace::require_storable(trace::MetricKind::Sample, name, value);
  if (!admit(EventKind::Observe)) return;
  auto& c = ctx_[static_cast<std::size_t>(EventKind::Observe)];
  std::string& out = begin_record(EventKind::Observe, -1);
  put_varint(out, intern(name));
  c.put_double(out, 0, value);
  maybe_flush();
}

}  // namespace tarr::tlog
