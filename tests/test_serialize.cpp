// common/serialize: the one number formatter and JSON escaper every
// byte-diffed artifact goes through.

#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace tarr {
namespace {

TEST(Serialize, NumberFormatBoundaries) {
  // Exact integers below 9e15 print bare; from 9e15 on, %.17g takes over.
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(-7.0), "-7");
  EXPECT_EQ(format_number(8999999999999999.0), "8999999999999999");
  EXPECT_EQ(format_number(9e15), "9000000000000000");
  EXPECT_EQ(format_number(1e19), "1e+19");
  EXPECT_EQ(format_number(-1e19), "-1e+19");
  // -0.0 is an exact integer and prints like 0.
  EXPECT_EQ(format_number(-0.0), "0");
  // Non-integers round-trip through %.17g.
  EXPECT_EQ(format_number(0.5), "0.5");
  EXPECT_EQ(format_number(0.1), "0.10000000000000001");
  // Non-finite values never reach the integer conversion.
  EXPECT_EQ(format_number(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(format_number(-std::numeric_limits<double>::infinity()), "-inf");
  EXPECT_EQ(format_number(std::numeric_limits<double>::quiet_NaN()), "nan");
  // The append form writes the same bytes after what is there.
  std::string out = "x=";
  append_number(out, 1.25);
  EXPECT_EQ(out, "x=1.25");
}

TEST(Serialize, JsonEscapeCharacterSet) {
  EXPECT_EQ(json_escape("plain text / 123"), "plain text / 123");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("\0", 1)), "\\u0000");
  EXPECT_EQ(json_escape("\r\x1f"), "\\u000d\\u001f");
  // Bytes from 0x20 up, including UTF-8 sequences, pass through.
  EXPECT_EQ(json_escape("\x7f\xc3\xa9 ~"), "\x7f\xc3\xa9 ~");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped =
        json_escape(std::string(1, static_cast<char>(c)));
    if (c == '\n' || c == '\t') {
      EXPECT_EQ(escaped.size(), 2u) << c;
    } else {
      EXPECT_EQ(escaped.size(), 6u) << c;
      EXPECT_EQ(escaped.rfind("\\u00", 0), 0u) << c;
    }
  }
}

}  // namespace
}  // namespace tarr
