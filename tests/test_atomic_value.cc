#include "xml/atomic_value.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace xqp {
namespace {

TEST(AtomicValue, LexicalForms) {
  EXPECT_EQ(AtomicValue::Integer(42).Lexical(), "42");
  EXPECT_EQ(AtomicValue::Integer(-7).Lexical(), "-7");
  EXPECT_EQ(AtomicValue::Boolean(true).Lexical(), "true");
  EXPECT_EQ(AtomicValue::Boolean(false).Lexical(), "false");
  EXPECT_EQ(AtomicValue::Double(2.5).Lexical(), "2.5");
  EXPECT_EQ(AtomicValue::Double(3.0).Lexical(), "3");
  EXPECT_EQ(AtomicValue::Decimal(1.5).Lexical(), "1.5");
  EXPECT_EQ(AtomicValue::Decimal(4.0).Lexical(), "4");
  EXPECT_EQ(AtomicValue::String("hi").Lexical(), "hi");
  EXPECT_EQ(AtomicValue::Untyped("u").Lexical(), "u");
}

TEST(AtomicValue, TypeNames) {
  EXPECT_EQ(XsTypeName(XsType::kInteger), "xs:integer");
  EXPECT_EQ(XsTypeName(XsType::kUntypedAtomic), "xdt:untypedAtomic");
  EXPECT_EQ(XsTypeName(XsType::kDouble), "xs:double");
}

TEST(XsTypeFromName, Lookup) {
  EXPECT_EQ(XsTypeFromName("xs:integer").value(), XsType::kInteger);
  EXPECT_EQ(XsTypeFromName("integer").value(), XsType::kInteger);
  EXPECT_EQ(XsTypeFromName("xs:string").value(), XsType::kString);
  EXPECT_EQ(XsTypeFromName("xdt:untypedAtomic").value(),
            XsType::kUntypedAtomic);
  EXPECT_FALSE(XsTypeFromName("xs:notAType").ok());
}

TEST(ParseXsDouble, Forms) {
  EXPECT_DOUBLE_EQ(ParseXsDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(ParseXsDouble("  -2e3 ").value(), -2000.0);
  EXPECT_TRUE(std::isinf(ParseXsDouble("INF").value()));
  EXPECT_TRUE(std::isinf(ParseXsDouble("-INF").value()));
  EXPECT_TRUE(std::isnan(ParseXsDouble("NaN").value()));
  EXPECT_FALSE(ParseXsDouble("abc").ok());
  EXPECT_FALSE(ParseXsDouble("").ok());
  EXPECT_FALSE(ParseXsDouble("1.5x").ok());
}

/// TryParseXsDouble hands strtod a terminated copy of the view — on the
/// stack below 64 bytes, on the heap above: both must give exactly
/// strtod's verdict and bits, including for views that are not
/// NUL-terminated.
TEST(ParseXsDouble, TryParseMatchesStrtod) {
  std::mt19937 rng(20041);
  auto digits = [&](int n) {
    std::string s;
    for (int i = 0; i < n; ++i) s += static_cast<char>('0' + rng() % 10);
    return s;
  };
  for (int iter = 0; iter < 2000; ++iter) {
    std::string s = rng() % 4 == 0 ? "-" : "";
    s += digits(static_cast<int>(rng() % 12));
    if (rng() % 3 != 0) s += "." + digits(static_cast<int>(rng() % 12));
    if (rng() % 8 == 0) s += "e" + std::to_string(int(rng() % 40) - 20);
    if (rng() % 16 == 0) s += "x";
    if (rng() % 16 == 0) s += digits(70);  // Past the stack buffer.
    errno = 0;
    char* end = nullptr;
    const double want = std::strtod(s.c_str(), &end);
    const bool want_ok =
        !s.empty() && end == s.c_str() + s.size() && errno != ERANGE;
    // A view into a longer buffer: the parse must stop at its end.
    const std::string padded = s + "7";
    double got = 0;
    const bool got_ok =
        TryParseXsDouble(std::string_view(padded).substr(0, s.size()), &got);
    ASSERT_EQ(got_ok, want_ok) << "'" << s << "'";
    if (!want_ok) continue;
    uint64_t got_bits, want_bits;
    std::memcpy(&got_bits, &got, sizeof(got));
    std::memcpy(&want_bits, &want, sizeof(want));
    ASSERT_EQ(got_bits, want_bits) << "'" << s << "'";
  }
}

TEST(ParseXsInteger, Forms) {
  EXPECT_EQ(ParseXsInteger("42").value(), 42);
  EXPECT_EQ(ParseXsInteger(" -3 ").value(), -3);
  EXPECT_FALSE(ParseXsInteger("4.5").ok());
  EXPECT_FALSE(ParseXsInteger("abc").ok());
}

struct CastCase {
  XsType from_type;
  const char* from_lexical;
  XsType to;
  bool ok;
  const char* expect;  // Lexical form of the result.
};

class CastTest : public ::testing::TestWithParam<CastCase> {};

AtomicValue Make(XsType t, const std::string& lexical) {
  switch (t) {
    case XsType::kString:
      return AtomicValue::String(lexical);
    case XsType::kUntypedAtomic:
      return AtomicValue::Untyped(lexical);
    case XsType::kAnyUri:
      return AtomicValue::AnyUri(lexical);
    case XsType::kBoolean:
      return AtomicValue::Boolean(lexical == "true");
    case XsType::kInteger:
      return AtomicValue::Integer(std::stoll(lexical));
    case XsType::kDecimal:
      return AtomicValue::Decimal(std::stod(lexical));
    case XsType::kDouble:
      return AtomicValue::Double(std::stod(lexical));
    case XsType::kQName:
      return AtomicValue::QNameValue(lexical);
  }
  return AtomicValue();
}

TEST_P(CastTest, Matrix) {
  const CastCase& c = GetParam();
  auto result = Make(c.from_type, c.from_lexical).CastTo(c.to);
  EXPECT_EQ(result.ok(), c.ok) << c.from_lexical << " -> "
                               << XsTypeName(c.to) << ": "
                               << result.status().ToString();
  if (c.ok && result.ok()) {
    EXPECT_EQ(result.value().Lexical(), c.expect);
    EXPECT_EQ(result.value().type(), c.to);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Casts, CastTest,
    ::testing::Values(
        // To string.
        CastCase{XsType::kInteger, "42", XsType::kString, true, "42"},
        CastCase{XsType::kDouble, "2.5", XsType::kString, true, "2.5"},
        CastCase{XsType::kBoolean, "true", XsType::kString, true, "true"},
        // String to numerics.
        CastCase{XsType::kString, "17", XsType::kInteger, true, "17"},
        CastCase{XsType::kString, "1.25", XsType::kDouble, true, "1.25"},
        CastCase{XsType::kString, "1.25", XsType::kDecimal, true, "1.25"},
        CastCase{XsType::kString, "x", XsType::kInteger, false, ""},
        CastCase{XsType::kString, "NaN", XsType::kDouble, true, "NaN"},
        CastCase{XsType::kString, "NaN", XsType::kDecimal, false, ""},
        // Untyped behaves like string for casting.
        CastCase{XsType::kUntypedAtomic, "99", XsType::kInteger, true, "99"},
        // Numeric tower.
        CastCase{XsType::kDouble, "2.9", XsType::kInteger, true, "2"},
        CastCase{XsType::kDouble, "-2.9", XsType::kInteger, true, "-2"},
        CastCase{XsType::kInteger, "3", XsType::kDouble, true, "3"},
        CastCase{XsType::kInteger, "3", XsType::kDecimal, true, "3"},
        // Boolean rules.
        CastCase{XsType::kString, "true", XsType::kBoolean, true, "true"},
        CastCase{XsType::kString, "1", XsType::kBoolean, true, "true"},
        CastCase{XsType::kString, "0", XsType::kBoolean, true, "false"},
        CastCase{XsType::kString, "yes", XsType::kBoolean, false, ""},
        CastCase{XsType::kInteger, "0", XsType::kBoolean, true, "false"},
        CastCase{XsType::kInteger, "7", XsType::kBoolean, true, "true"},
        CastCase{XsType::kBoolean, "true", XsType::kInteger, true, "1"},
        CastCase{XsType::kBoolean, "true", XsType::kDouble, true, "1"},
        // Identity casts.
        CastCase{XsType::kInteger, "5", XsType::kInteger, true, "5"},
        // Invalid.
        CastCase{XsType::kBoolean, "true", XsType::kQName, false, ""}));

TEST(AtomicValue, DeepEqualsNumericCrossType) {
  EXPECT_TRUE(AtomicValue::Integer(3).DeepEquals(AtomicValue::Double(3.0)));
  EXPECT_TRUE(AtomicValue::Decimal(2.5).DeepEquals(AtomicValue::Double(2.5)));
  EXPECT_FALSE(AtomicValue::Integer(3).DeepEquals(AtomicValue::Double(3.5)));
  // NaN equals NaN under deep-equal (distinct-values semantics).
  double nan = std::nan("");
  EXPECT_TRUE(AtomicValue::Double(nan).DeepEquals(AtomicValue::Double(nan)));
}

TEST(AtomicValue, DeepEqualsStrings) {
  EXPECT_TRUE(AtomicValue::String("a").DeepEquals(AtomicValue::Untyped("a")));
  EXPECT_FALSE(AtomicValue::String("a").DeepEquals(AtomicValue::Integer(1)));
}

TEST(AtomicValue, HashConsistentWithDeepEquals) {
  EXPECT_EQ(AtomicValue::Integer(3).Hash(), AtomicValue::Double(3.0).Hash());
  EXPECT_EQ(AtomicValue::String("q").Hash(), AtomicValue::Untyped("q").Hash());
}

}  // namespace
}  // namespace xqp
