#pragma once

#include <string>
#include <vector>

/// \file csv.hpp
/// Minimal CSV writer so the figure harnesses can emit machine-readable
/// series next to their text tables (for plotting the reproduced figures).

namespace tarr::bench {

/// Accumulates rows and writes RFC-4180-style CSV (quotes fields that need
/// them, doubles embedded quotes).
class CsvWriter {
 public:
  /// Header row (written first).
  void set_header(std::vector<std::string> header);

  /// Append a data row; it may be shorter than the header.
  void add_row(std::vector<std::string> row);

  /// Serialize to a string.
  std::string to_string() const;

  std::size_t rows() const { return rows_.size(); }

 private:
  static std::string escape(const std::string& field);
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tarr::bench
