#include "bench/csv.hpp"

#include <sstream>

#include "common/serialize.hpp"

namespace tarr::bench {

void CsvWriter::set_header(std::vector<std::string> header) {
  header_ = std::move(header);
}

void CsvWriter::add_row(std::vector<std::string> row) {
  rows_.push_back(std::move(row));
}

std::string CsvWriter::escape(const std::string& field) {
  // RFC 4180: a field containing a comma, quote, LF, or CR must be quoted
  // (CR included — a bare \r would silently corrupt the row structure for
  // readers that accept CRLF line endings).
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string CsvWriter::to_string() const {
  std::ostringstream os;
  auto emit = [&os](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      if (i) os << ',';
      os << escape(row[i]);
    }
    os << '\n';
  };
  if (!header_.empty()) emit(header_);
  for (const auto& r : rows_) emit(r);
  return os.str();
}

void CsvWriter::write(const std::string& path) const {
  write_file(path, to_string());
}

}  // namespace tarr::bench
