#include "tlog/format.hpp"

#include <bit>

namespace tarr::tlog {

const char* to_string(EventKind k) {
  switch (k) {
    case EventKind::Stage:
      return "stage";
    case EventKind::Transfer:
      return "transfer";
    case EventKind::Phase:
      return "phase";
    case EventKind::WallSpan:
      return "wall-span";
    case EventKind::Time:
      return "time";
    case EventKind::Count:
      return "count";
    case EventKind::Observe:
      return "observe";
  }
  return "?";
}

bool parse_event_kind(const std::string& name, EventKind& out) {
  for (int k = 0; k < kNumEventKinds; ++k) {
    if (name == to_string(static_cast<EventKind>(k))) {
      out = static_cast<EventKind>(k);
      return true;
    }
  }
  return false;
}

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void put_svarint(std::string& out, std::int64_t v) {
  put_varint(out, zigzag(v));
}

std::uint64_t fnv1a(const char* data, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

void FieldContext::put_double(std::string& out, int slot, double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  put_varint(out, bits ^ bits_[static_cast<std::size_t>(slot)]);
  bits_[static_cast<std::size_t>(slot)] = bits;
}

double FieldContext::apply_bits_xor(int slot, std::uint64_t x) {
  bits_[static_cast<std::size_t>(slot)] ^= x;
  return std::bit_cast<double>(bits_[static_cast<std::size_t>(slot)]);
}

}  // namespace tarr::tlog
