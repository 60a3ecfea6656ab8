#include <gtest/gtest.h>

#include "hetpar/support/error.hpp"
#include "hetpar/support/rng.hpp"
#include "hetpar/support/strings.hpp"

namespace hetpar {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(strings::trim("  abc  "), "abc");
  EXPECT_EQ(strings::trim("abc"), "abc");
  EXPECT_EQ(strings::trim("   "), "");
  EXPECT_EQ(strings::trim(""), "");
  EXPECT_EQ(strings::trim("\t a b \n"), "a b");
}

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(strings::split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(strings::split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(strings::split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(strings::split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(strings::splitWhitespace("  a   b \t c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(strings::splitWhitespace("   ").empty());
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::join({"solo"}, ","), "solo");
}

TEST(Strings, FormatMinSec) {
  EXPECT_EQ(strings::formatMinSec(0.0), "00:00");
  EXPECT_EQ(strings::formatMinSec(8.0), "00:08");
  EXPECT_EQ(strings::formatMinSec(190.0), "03:10");  // the paper's average
  EXPECT_EQ(strings::formatMinSec(732.4), "12:12");
  EXPECT_EQ(strings::formatMinSec(-5.0), "00:00");
}

TEST(Strings, FormatThousands) {
  EXPECT_EQ(strings::formatThousands(0), "0");
  EXPECT_EQ(strings::formatThousands(999), "999");
  EXPECT_EQ(strings::formatThousands(1000), "1,000");
  EXPECT_EQ(strings::formatThousands(242382), "242,382");  // Table I, compress
  EXPECT_EQ(strings::formatThousands(-54321), "-54,321");
}

TEST(Strings, PrintfFormat) {
  EXPECT_EQ(strings::format("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strings::format("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strings::format("plain"), "plain");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, RangesRespected) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double w = rng.uniform(2.0, 5.0);
    EXPECT_GE(w, 2.0);
    EXPECT_LT(w, 5.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Error, HierarchyAndMessages) {
  try {
    throw ParseError("bad token");
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "bad token");
  }
  EXPECT_THROW(require<SemaError>(false, "nope"), SemaError);
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(HETPAR_CHECK(1 == 2), InternalError);
}

}  // namespace
}  // namespace hetpar
