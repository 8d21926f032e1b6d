#include "common/serialize.hpp"

#include <cmath>
#include <cstdio>

#include "common/error.hpp"

namespace tarr {

void append_number(std::string& out, double v) {
  char buf[40];
  // fabs(NaN) < x is false, so only finite values reach the cast.
  if (std::fabs(v) < 9.0e15 && v == std::trunc(v)) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  out += buf;
}

std::string format_number(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_json_escaped(out, s);
  return out;
}

void write_file(const std::string& path, std::string_view body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) throw Error("cannot write " + path);
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  if (std::fclose(f) != 0 || !ok) throw Error("failed writing " + path);
}

void ensure_writable(const std::string& path) {
  // "ab" creates a missing file but never truncates an existing one.
  std::FILE* existing = std::fopen(path.c_str(), "rb");
  const bool existed = existing != nullptr;
  if (existing != nullptr) std::fclose(existing);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) throw Error("cannot open " + path + " for writing");
  std::fclose(f);
  if (!existed) std::remove(path.c_str());
}

}  // namespace tarr
