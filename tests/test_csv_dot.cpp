// Tests for the CSV writer.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "bench/csv.hpp"
#include "common/error.hpp"
#include "common/serialize.hpp"

namespace tarr {
namespace {

TEST(CsvWriter, BasicSerialization) {
  bench::CsvWriter w;
  w.set_header({"msg", "impr"});
  w.add_row({"1K", "42.5"});
  w.add_row({"256K", "-3.5"});
  EXPECT_EQ(w.to_string(), "msg,impr\n1K,42.5\n256K,-3.5\n");
  EXPECT_EQ(w.rows(), 2u);
}

TEST(CsvWriter, EscapesSpecialCharacters) {
  bench::CsvWriter w;
  w.add_row({"a,b", "he said \"hi\"", "multi\nline", "plain"});
  EXPECT_EQ(w.to_string(),
            "\"a,b\",\"he said \"\"hi\"\"\",\"multi\nline\",plain\n");
}

TEST(CsvWriter, QuotesCarriageReturnsPerRfc4180) {
  // A bare \r (or a \r\n pair) inside a field must force quoting, exactly
  // like \n — otherwise CRLF-tolerant readers split the row in two.
  bench::CsvWriter w;
  w.add_row({"cr\rfield", "crlf\r\nfield", "plain"});
  EXPECT_EQ(w.to_string(), "\"cr\rfield\",\"crlf\r\nfield\",plain\n");
}

TEST(CsvWriter, WritesFile) {
  // Every caller writes a CsvWriter as write_file(path, w.to_string()).
  const std::string path = ::testing::TempDir() + "/tarr_test.csv";
  bench::CsvWriter w;
  w.set_header({"x"});
  w.add_row({"1"});
  write_file(path, w.to_string());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::getline(in, line);
  EXPECT_EQ(line, "1");
  std::remove(path.c_str());
  EXPECT_THROW(write_file("/nonexistent/dir/x.csv", w.to_string()), Error);
}

}  // namespace
}  // namespace tarr
