#pragma once

#include <string>
#include <string_view>

/// \file serialize.hpp
/// The text conventions every byte-diffed artifact shares — timelines,
/// metrics CSVs, profiles, bench snapshots, findings and dashboards — and
/// the one checked file writer they go out through.  Same-seed runs are
/// compared with `cmp`, so each function here is a pure function of its
/// arguments: no locale, no environment.

namespace tarr {

/// Appends `v` as text: an exact integer of magnitude below 9e15 prints
/// bare ("%lld"; -0.0 prints "0"), anything else as "%.17g", which
/// round-trips every finite double and prints "inf", "-inf" or "nan" for
/// the rest.  The range is checked before any integer conversion.
void append_number(std::string& out, double v);
std::string format_number(double v);

/// Appends `s` escaped for the inside of a JSON string: '"' and '\\' take
/// a backslash, '\n' and '\t' their two-character escapes, every other
/// byte below 0x20 a \u00XX escape; all other bytes pass through.
void append_json_escaped(std::string& out, std::string_view s);
std::string json_escape(std::string_view s);

/// Writes `body` to `path`.  Open, write and close are each checked; a
/// failure throws tarr::Error naming the path.
void write_file(const std::string& path, std::string_view body);

/// Fail-fast writability probe for an output path: throws tarr::Error if
/// `path` cannot be opened for writing, without truncating an existing
/// file (a file the probe itself created is removed again).  CLIs call it
/// before a long run so a typo'd path fails at once, not after the run.
void ensure_writable(const std::string& path);

}  // namespace tarr
