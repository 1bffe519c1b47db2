// Accept/reject behaviour of the strict numeric parsers (core/env.hpp):
// full-consumption parsing, whitespace trimming, and the explicit hex and
// overflow rejection. A value these tests reject is one `mpsim --threads`
// / `--scale`, or a spec's integer token, refuses.
#include "core/env.hpp"

#include <gtest/gtest.h>

namespace mpsim::env {
namespace {

TEST(ParseDouble, AcceptsPlainNumbers) {
  double v = -1.0;
  EXPECT_TRUE(parse_double("1.5", v));
  EXPECT_DOUBLE_EQ(v, 1.5);
  EXPECT_TRUE(parse_double("-0.25", v));
  EXPECT_DOUBLE_EQ(v, -0.25);
  EXPECT_TRUE(parse_double("1e3", v));
  EXPECT_DOUBLE_EQ(v, 1000.0);
  EXPECT_TRUE(parse_double("0", v));
  EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ParseDouble, TrimsWhitespace) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("  2 ", v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_TRUE(parse_double("\t0.5\n", v));
  EXPECT_DOUBLE_EQ(v, 0.5);
}

TEST(ParseDouble, RejectsEmptyAndGarbage) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("   ", v));
  EXPECT_FALSE(parse_double("fast", v));
  EXPECT_FALSE(parse_double("1,5", v));
}

TEST(ParseDouble, RejectsTrailingText) {
  // "2Mbps" silently parsing as 2.0 is exactly the bug class the strict
  // parser exists to kill.
  double v = 0.0;
  EXPECT_FALSE(parse_double("2Mbps", v));
  EXPECT_FALSE(parse_double("1.5x", v));
  EXPECT_FALSE(parse_double("3 4", v));
}

TEST(ParseDouble, RejectsHex) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("0x2", v));
  EXPECT_FALSE(parse_double("0X10", v));
}

TEST(ParseDouble, RejectsNonFinite) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("nan", v));
  EXPECT_FALSE(parse_double("inf", v));
  EXPECT_FALSE(parse_double("1e999", v));  // overflows to ERANGE
}

TEST(ParseInt, AcceptsIntegers) {
  std::int64_t v = -1;
  EXPECT_TRUE(parse_int("42", v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(parse_int(" -7 ", v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(parse_int("0", v));
  EXPECT_EQ(v, 0);
}

TEST(ParseInt, RejectsNonIntegers) {
  std::int64_t v = 0;
  EXPECT_FALSE(parse_int("", v));
  EXPECT_FALSE(parse_int("4.2", v));
  EXPECT_FALSE(parse_int("1e3", v));
  EXPECT_FALSE(parse_int("0x10", v));
  EXPECT_FALSE(parse_int("seven", v));
  EXPECT_FALSE(parse_int("12 monkeys", v));
}

TEST(ParseInt, RejectsOverflow) {
  std::int64_t v = 0;
  EXPECT_FALSE(parse_int("99999999999999999999", v));
  EXPECT_TRUE(parse_int("9223372036854775807", v));
  EXPECT_EQ(v, INT64_MAX);
}

}  // namespace
}  // namespace mpsim::env
