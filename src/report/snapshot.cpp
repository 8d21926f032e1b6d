#include "report/snapshot.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace tarr::report {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON reader: just enough for schema v1 (objects, arrays, strings,
// numbers, booleans, null), with position-tagged errors.  No dependency on
// anything outside the standard library.

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* get(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return &v;
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw Error("snapshot JSON: " + why + " at offset " +
                std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume(char c) {
    if (pos_ < text_.size() && peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  JsonValue value() {
    const char c = peek();
    switch (c) {
      case '{':
        return object();
      case '[':
        return array();
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string = string();
        return v;
      }
      case 't':
      case 'f': {
        JsonValue v;
        v.kind = JsonValue::Kind::Bool;
        v.boolean = c == 't';
        literal(c == 't' ? "true" : "false");
        return v;
      }
      case 'n':
        literal("null");
        return JsonValue{};
      default:
        return number();
    }
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p)
        fail(std::string("bad literal, expected ") + lit);
    }
  }

  JsonValue object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    if (consume('}')) return v;
    while (true) {
      std::string key = (peek(), string());
      expect(':');
      v.object.emplace_back(std::move(key), value());
      if (consume('}')) return v;
      expect(',');
    }
  }

  JsonValue array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    if (consume(']')) return v;
    while (true) {
      v.array.push_back(value());
      if (consume(']')) return v;
      expect(',');
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'r': out += '\r'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Snapshots only ever escape control characters; anything in the
          // Latin-1 range round-trips, the rest is replaced.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("bad number '" + tok + "'");
    // strtod overflows a literal like 1e999 to infinity; every consumer of
    // a snapshot value assumes a finite one.
    if (!std::isfinite(v)) fail("non-finite number '" + tok + "'");
    JsonValue out;
    out.kind = JsonValue::Kind::Number;
    out.number = v;
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

double require_number(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::Number)
    throw Error(std::string("snapshot JSON: missing number field '") + key +
                "'");
  return v->number;
}

std::string require_string(const JsonValue& obj, const char* key) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr || v->kind != JsonValue::Kind::String)
    throw Error(std::string("snapshot JSON: missing string field '") + key +
                "'");
  return v->string;
}

bool bool_or(const JsonValue& obj, const char* key, bool fallback) {
  const JsonValue* v = obj.get(key);
  if (v == nullptr) return fallback;
  if (v->kind != JsonValue::Kind::Bool)
    throw Error(std::string("snapshot JSON: field '") + key +
                "' is not a boolean");
  return v->boolean;
}

}  // namespace

const BenchMetric* BenchSnapshot::find(const std::string& name) const {
  for (const auto& m : metrics)
    if (m.name == name) return &m;
  return nullptr;
}

std::string BenchSnapshot::json() const {
  std::string out = "{\n";
  out += "  \"schema\": " + std::to_string(schema) + ",\n";
  out += "  \"bench\": \"" + json_escape(bench) + "\",\n";
  out += "  \"config\": \"" + json_escape(config) + "\",\n";
  out += "  \"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    out += first ? "\n" : ",\n";
    out += "    \"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"metrics\": [";
  first = true;
  for (const auto& m : metrics) {
    out += first ? "\n" : ",\n";
    out += "    {\"name\": \"" + json_escape(m.name) + "\", \"value\": " +
           format_number(m.value) + ", \"unit\": \"" + json_escape(m.unit) +
           "\", \"higher_is_better\": " +
           (m.higher_is_better ? "true" : "false") +
           ", \"gate\": " + (m.gate ? "true" : "false") + "}";
    first = false;
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void BenchSnapshot::write(const std::string& path) const {
  write_file(path, json());
}

BenchSnapshot parse_snapshot(const std::string& text) {
  const JsonValue root = JsonParser(text).parse();
  if (root.kind != JsonValue::Kind::Object)
    throw Error("snapshot JSON: top level is not an object");
  BenchSnapshot s;
  const double schema = require_number(root, "schema");
  if (schema != std::trunc(schema) || std::fabs(schema) > 1.0e9)
    throw Error("snapshot JSON: schema " + format_number(schema) +
                " is not an integer version");
  s.schema = static_cast<int>(schema);
  if (s.schema != kSnapshotSchema)
    throw Error("snapshot JSON: unsupported schema version " +
                std::to_string(s.schema));
  s.bench = require_string(root, "bench");
  s.config = require_string(root, "config");
  if (const JsonValue* meta = root.get("meta"); meta != nullptr) {
    if (meta->kind != JsonValue::Kind::Object)
      throw Error("snapshot JSON: 'meta' is not an object");
    for (const auto& [k, v] : meta->object) {
      if (v.kind != JsonValue::Kind::String)
        throw Error("snapshot JSON: meta value for '" + k +
                    "' is not a string");
      s.meta[k] = v.string;
    }
  }
  const JsonValue* metrics = root.get("metrics");
  if (metrics == nullptr || metrics->kind != JsonValue::Kind::Array)
    throw Error("snapshot JSON: missing 'metrics' array");
  for (const JsonValue& m : metrics->array) {
    if (m.kind != JsonValue::Kind::Object)
      throw Error("snapshot JSON: metric entry is not an object");
    BenchMetric bm;
    bm.name = require_string(m, "name");
    bm.value = require_number(m, "value");
    bm.unit = require_string(m, "unit");
    bm.higher_is_better = bool_or(m, "higher_is_better", false);
    bm.gate = bool_or(m, "gate", true);
    s.metrics.push_back(std::move(bm));
  }
  return s;
}

BenchSnapshot load_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw Error("snapshot: cannot read " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  try {
    return parse_snapshot(text);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

std::vector<BenchSnapshot> load_snapshot_set(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<BenchSnapshot> out;
  if (fs::is_regular_file(dir)) {
    out.push_back(load_snapshot(dir));
    return out;
  }
  if (!fs::is_directory(dir))
    throw Error("snapshot set: no such file or directory: " + dir);
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 &&
        name.size() > 5 &&
        name.compare(name.size() - 5, 5, ".json") == 0)
      paths.push_back(entry.path().string());
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) out.push_back(load_snapshot(p));
  if (out.empty())
    throw Error("snapshot set: no BENCH_*.json files under " + dir);
  std::sort(out.begin(), out.end(),
            [](const BenchSnapshot& a, const BenchSnapshot& b) {
              return a.bench < b.bench;
            });
  return out;
}

bool glob_match(const std::string& pattern, const std::string& name) {
  // Iterative matcher with single-star backtracking: on mismatch after a
  // `*`, advance the name position the star absorbs and retry.  Linear in
  // practice for the BENCH_*.json shapes this is used on.
  std::size_t p = 0, n = 0;
  std::size_t star = std::string::npos, mark = 0;
  while (n < name.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '?' || pattern[p] == name[n])) {
      ++p;
      ++n;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = n;
    } else if (star != std::string::npos) {
      p = star + 1;
      n = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

std::vector<std::string> glob_paths(const std::string& pattern) {
  namespace fs = std::filesystem;
  if (pattern.find_first_of("*?") == std::string::npos) {
    if (!fs::exists(pattern))
      throw Error("glob: no such file or directory: " + pattern);
    return {pattern};
  }
  const std::size_t slash = pattern.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : pattern.substr(0, slash + 1);
  const std::string leaf =
      slash == std::string::npos ? pattern : pattern.substr(slash + 1);
  if (leaf.empty()) throw Error("glob: pattern ends in '/': " + pattern);
  if (dir.find_first_of("*?") != std::string::npos)
    throw Error("glob: wildcards are only supported in the final path "
                "component: " + pattern);
  if (!fs::is_directory(dir))
    throw Error("glob: no such directory: " + dir);
  std::vector<std::string> out;
  for (const auto& entry : fs::directory_iterator(dir))
    if (glob_match(leaf, entry.path().filename().string()))
      out.push_back(entry.path().string());
  std::sort(out.begin(), out.end());
  if (out.empty()) throw Error("glob: nothing matches " + pattern);
  return out;
}

std::vector<BenchSnapshot> load_snapshot_set_glob(const std::string& pattern) {
  if (pattern.find_first_of("*?") == std::string::npos)
    return load_snapshot_set(pattern);
  std::vector<BenchSnapshot> out;
  for (const std::string& path : glob_paths(pattern)) {
    // A matched directory contributes its whole set, a matched file just
    // itself — so `baselines/smoke*` and `baselines/BENCH_fig?_*.json`
    // both do the obvious thing.
    auto part = load_snapshot_set(path);
    out.insert(out.end(), std::make_move_iterator(part.begin()),
               std::make_move_iterator(part.end()));
  }
  std::sort(out.begin(), out.end(),
            [](const BenchSnapshot& a, const BenchSnapshot& b) {
              return a.bench < b.bench;
            });
  return out;
}

bool SnapshotComparison::regressed() const {
  if (missing) return true;
  return std::any_of(metrics.begin(), metrics.end(),
                     [](const MetricComparison& m) { return m.regressed; });
}

Drift drift(const BenchMetric& baseline, double current,
            const CompareOptions& opts) {
  const double tol = std::max(opts.abs_tolerance,
                              opts.rel_tolerance / 100.0 *
                                  std::fabs(baseline.value));
  const double delta = current - baseline.value;  // + means grew
  const double worse = baseline.higher_is_better ? -delta : delta;
  if (worse > tol) return Drift::Worse;
  if (worse < -tol) return Drift::Better;
  return Drift::Within;
}

SnapshotComparison compare_snapshots(const BenchSnapshot& baseline,
                                     const BenchSnapshot& current,
                                     const CompareOptions& opts) {
  SnapshotComparison out;
  out.bench = baseline.bench;
  for (const auto& base : baseline.metrics) {
    MetricComparison mc;
    mc.name = base.name;
    mc.unit = base.unit;
    mc.gated = base.gate;
    mc.baseline = base.value;
    const BenchMetric* cur = current.find(base.name);
    if (cur == nullptr) {
      // A gated metric vanishing is itself a regression: the gate must not
      // silently narrow because a bench stopped reporting a number.
      mc.missing = true;
      mc.regressed = base.gate;
      out.metrics.push_back(std::move(mc));
      continue;
    }
    mc.current = cur->value;
    mc.change_percent = base.value != 0.0
                            ? (cur->value - base.value) / base.value * 100.0
                            : 0.0;
    const Drift d = drift(base, cur->value, opts);
    mc.regressed = base.gate && d == Drift::Worse;
    mc.improved = d == Drift::Better;
    out.metrics.push_back(std::move(mc));
  }
  return out;
}

std::vector<SnapshotComparison> compare_snapshot_sets(
    const std::vector<BenchSnapshot>& baseline,
    const std::vector<BenchSnapshot>& current, const CompareOptions& opts) {
  std::vector<SnapshotComparison> results;
  for (const auto& base : baseline) {
    const auto it = std::find_if(current.begin(), current.end(),
                                 [&](const BenchSnapshot& c) {
                                   return c.bench == base.bench;
                                 });
    if (it == current.end()) {
      SnapshotComparison miss;
      miss.bench = base.bench;
      miss.missing = true;
      results.push_back(std::move(miss));
    } else {
      results.push_back(compare_snapshots(base, *it, opts));
    }
  }
  return results;
}

bool any_regressed(const std::vector<SnapshotComparison>& results) {
  return std::any_of(results.begin(), results.end(),
                     [](const SnapshotComparison& r) { return r.regressed(); });
}

}  // namespace tarr::report
