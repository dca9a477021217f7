#include "common/numeric_text.hpp"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/prng.hpp"

namespace bxsoap {
namespace {

TEST(NumericText, FormatInt64Basics) {
  EXPECT_EQ(format_int64(0), "0");
  EXPECT_EQ(format_int64(-1), "-1");
  EXPECT_EQ(format_int64(std::numeric_limits<std::int64_t>::max()),
            "9223372036854775807");
  EXPECT_EQ(format_int64(std::numeric_limits<std::int64_t>::min()),
            "-9223372036854775808");
}

TEST(NumericText, FormatDoubleShortestRoundTrip) {
  // to_chars default gives the shortest representation that round-trips.
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(*parse_double(format_double(0.1)), 0.1);
}

TEST(NumericText, ParseInt64Basics) {
  EXPECT_EQ(*parse_int64("42"), 42);
  EXPECT_EQ(*parse_int64("-42"), -42);
  EXPECT_EQ(*parse_int64("+42"), 42) << "XML Schema allows a leading plus";
  EXPECT_FALSE(parse_int64(""));
  EXPECT_FALSE(parse_int64("4 2"));
  EXPECT_FALSE(parse_int64("42x"));
  EXPECT_FALSE(parse_int64("x42"));
}

TEST(NumericText, ParseUint64RejectsNegative) {
  EXPECT_EQ(*parse_uint64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_uint64("-1"));
}

TEST(NumericText, ParseInt64Overflow) {
  EXPECT_FALSE(parse_int64("9223372036854775808"));
  EXPECT_EQ(*parse_int64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
}

TEST(NumericText, ParseDoubleForms) {
  EXPECT_DOUBLE_EQ(*parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(*parse_double("-1e10"), -1e10);
  EXPECT_DOUBLE_EQ(*parse_double("+0.5"), 0.5);
  EXPECT_FALSE(parse_double("1.0.0"));
  EXPECT_FALSE(parse_double(""));
}

TEST(NumericText, DoubleRoundTripRandom) {
  SplitMix64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double(-1e6, 1e6);
    auto p = parse_double(format_double(v));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, v) << "shortest formatting must round-trip exactly";
  }
}

TEST(NumericText, DoubleRoundTripExtremes) {
  for (double v : {std::numeric_limits<double>::max(),
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(), -0.0}) {
    auto p = parse_double(format_double(v));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, v);
    EXPECT_EQ(std::signbit(*p), std::signbit(v));
  }
}

TEST(NumericText, FloatRoundTripRandom) {
  SplitMix64 rng(8);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.next_double(-1e6, 1e6));
    auto p = parse_float(format_float(v));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, v);
  }
}

// ---- the short-decimal fast paths against std::to_chars / from_chars ------

std::string reference_to_chars(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

/// What the parsers did before their fast path: from_chars after one
/// optional leading '+'.
template <typename T>
std::optional<T> reference_parse(std::string_view s) {
  const char* first = s.data();
  const char* last = s.data() + s.size();
  if (first != last && *first == '+') ++first;
  T v{};
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

template <typename T>
bool same_bits(T a, T b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

/// The fast path may decline anything, but what it accepts the reference
/// must accept with the same bits.
template <typename T>
void expect_agrees_if_accepted(bool accepted, T value, std::string_view s) {
  if (!accepted) return;
  const std::optional<T> ref = reference_parse<T>(s);
  ASSERT_TRUE(ref.has_value()) << "fast path accepted '" << s << "'";
  EXPECT_TRUE(same_bits(value, *ref)) << "'" << s << "'";
}

/// parse_short_decimal, and the scan the typed XML decoder runs on array
/// items (which has no length limit).
template <typename T>
void expect_fast_path_agrees(std::string_view s) {
  const char* const end = s.data() + s.size();
  ShortDecimal d;
  T scanned{};
  const bool scan_ok = scan_short_decimal(s.data(), end, d) == end &&
                       d.valid && short_decimal_value(d, scanned);
  expect_agrees_if_accepted(scan_ok, scanned, s);
  T parsed{};
  const bool parse_ok = parse_short_decimal(s, parsed);
  expect_agrees_if_accepted(parse_ok, parsed, s);
}

template <typename T>
void expect_same_parse(std::optional<T> got, std::string_view s) {
  const std::optional<T> ref = reference_parse<T>(s);
  ASSERT_EQ(got.has_value(), ref.has_value()) << "'" << s << "'";
  if (got) {
    EXPECT_TRUE(same_bits(*got, *ref)) << "'" << s << "'";
  }
}

/// Every parser that has the fast path, on `s`: the whole-string parsers
/// agree with the reference on accept/reject and value, and the fast path
/// agrees for every packed type.
void expect_parsers_agree(std::string_view s) {
  expect_same_parse(parse_double(s), s);
  expect_same_parse(parse_int64(s), s);
  expect_same_parse(parse_uint64(s), s);
  expect_fast_path_agrees<double>(s);
  expect_fast_path_agrees<float>(s);
  expect_fast_path_agrees<std::int8_t>(s);
  expect_fast_path_agrees<std::uint8_t>(s);
  expect_fast_path_agrees<std::int16_t>(s);
  expect_fast_path_agrees<std::uint16_t>(s);
  expect_fast_path_agrees<std::int32_t>(s);
  expect_fast_path_agrees<std::uint32_t>(s);
  expect_fast_path_agrees<std::int64_t>(s);
  expect_fast_path_agrees<std::uint64_t>(s);
}

/// The formatter's inputs: six seeded distributions of 200,000 values
/// each, plus an edge list.
std::vector<double> formatter_inputs() {
  constexpr int kPerDistribution = 200000;
  SplitMix64 rng(13);
  std::vector<double> v;
  v.reserve(6 * kPerDistribution * 2 + 64);
  auto pow10 = [](int e) { return std::pow(10.0, e); };
  for (int i = 0; i < kPerDistribution; ++i) {
    // Two-decimal values like a LEAD dataset's.
    v.push_back(std::round(rng.next_double(200, 320) * 100.0) / 100.0);
    // k-decimal values times 10^e: every digit count and magnitude on
    // both sides of the fast path's range.
    const int k = static_cast<int>(rng.next_below(16));
    const double m =
        static_cast<double>(rng.next_below(1000000000000000ull)) / pow10(k);
    v.push_back(m * pow10(static_cast<int>(rng.next_below(44)) - 22));
    // Random bit patterns: subnormals, huge values, inf and nan included.
    const std::uint64_t bits = rng.next();
    double r;
    std::memcpy(&r, &bits, sizeof r);
    v.push_back(r);
    // Integers below 2 * 10^15, both signs.
    const double n = static_cast<double>(rng.next_below(2000000000000000ull));
    v.push_back(rng.next_bool() ? n : -n);
    // Full-precision values.
    v.push_back(rng.next_double(-1e6, 1e6));
    // Short decimals and their neighbours, which need 16-17 digits.
    const double s = static_cast<double>(rng.next_below(100000000)) /
                     pow10(static_cast<int>(rng.next_below(9)));
    v.push_back(std::nextafter(s, rng.next_bool() ? 1e300 : -1e300));
    v.push_back(s);
  }
  const double inf = std::numeric_limits<double>::infinity();
  for (double e : {0.0, -0.0, 1e15, std::nextafter(1e15, 0.0), -1e15, 1e-5,
                   std::nextafter(1e-5, 0.0), std::nextafter(1e-5, 1.0), 1e10,
                   1e4, 1e5, 1e-3, 1e-4, 1.5e-4, 0.1, 0.2, 0.3, 0.1 + 0.2,
                   9007199254740991.0, 123456789012345.0, 999999999999999.0,
                   std::numeric_limits<double>::min(),
                   std::numeric_limits<double>::denorm_min(),
                   std::numeric_limits<double>::max(), inf, -inf,
                   std::numeric_limits<double>::quiet_NaN(),
                   -std::numeric_limits<double>::quiet_NaN()}) {
    v.push_back(e);
  }
  for (int e = -25; e <= 25; ++e) {
    v.push_back(pow10(e));
    v.push_back(std::nextafter(pow10(e), 0.0));
    v.push_back(std::nextafter(pow10(e), inf));
  }
  return v;
}

TEST(NumericText, AppendDoubleIsByteIdenticalToToChars) {
  std::size_t mismatches = 0;
  std::string got;
  for (const double v : formatter_inputs()) {
    got.clear();
    append_double(got, v);
    const std::string ref = reference_to_chars(v);
    if (got != ref && ++mismatches <= 10) {
      ADD_FAILURE() << "append_double wrote '" << got << "', to_chars '"
                    << ref << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(NumericText, ShortDoublesTakeTheFastPath) {
  // The fast path declines only what it must: values needing 16-17
  // digits, or printed in scientific notation.
  char buf[kMaxNumberChars];
  for (double v : {287.45, -0.001, 1e4, 0.00012, 123456789012345.0, 0.1}) {
    EXPECT_NE(detail::write_short_double(buf, v), nullptr) << v;
  }
  for (double v : {0.0, 1e5, 1e15, 1e-4, 0.1 + 0.2,
                   std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(detail::write_short_double(buf, v), nullptr) << v;
  }
}

TEST(NumericText, ParsersAgreeWithFromCharsOnFormattedText) {
  for (const double v : formatter_inputs()) {
    const std::string text = reference_to_chars(v);
    expect_parsers_agree(text);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(NumericText, ParsersAgreeWithFromCharsOnEdgeTexts) {
  std::vector<std::string> texts = {
      "1.", ".5", "+5", "-0", "007", " 5", "5 ", "1e5", "inf", "nan", "-inf",
      "", "+", "-", ".", "-.5", "+.5", "1.5.", "--5", "+-5", "-+5", "0x10",
      "0", "+0", "-0.0", "00.50", "0.000000000000001", "999999999999999",
      "99999999999999.9", "1.00000000000000", "-123456789012345",
      // 16-19 digit mantissas.
      "1234567890123456", "12345678901234567", "123456789012345678",
      "1234567890123456789", "9999999999999999", "0.1234567890123456",
      "1234567890123456.5", "-9007199254740993",
      // 64-bit limits and one past them.
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "18446744073709551615", "18446744073709551616"};
  // One inside and one outside each packed integer type's range.
  auto add_limits = [&texts](auto t) {
    using T = decltype(t);
    const auto lo = static_cast<std::int64_t>(std::numeric_limits<T>::min());
    const auto hi = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    texts.push_back(std::to_string(lo));
    texts.push_back(std::to_string(hi));
    texts.push_back(std::to_string(hi + 1));
    if (lo != 0) texts.push_back(std::to_string(lo - 1));
  };
  add_limits(std::int8_t{});
  add_limits(std::uint8_t{});
  add_limits(std::int16_t{});
  add_limits(std::uint16_t{});
  add_limits(std::int32_t{});
  add_limits(std::uint32_t{});
  for (const auto& t : texts) expect_parsers_agree(t);

  EXPECT_EQ(*parse_double("287.45"), 287.45);
  EXPECT_TRUE(std::signbit(*parse_double("-0")));
  EXPECT_EQ(*parse_int64("-0"), 0);
  EXPECT_FALSE(parse_uint64("-0"));
  std::int32_t i32 = 0;
  EXPECT_FALSE(parse_short_decimal<std::int32_t>("2147483648", i32));
  EXPECT_TRUE(parse_short_decimal<std::int32_t>("-2147483648", i32));
  EXPECT_EQ(i32, std::numeric_limits<std::int32_t>::min());
}

TEST(NumericText, AppendAvoidsIntermediate) {
  std::string out = "x=";
  append_double(out, 2.5);
  EXPECT_EQ(out, "x=2.5");
  append_int64(out, -3);
  EXPECT_EQ(out, "x=2.5-3");
}

TEST(NumericText, TrimXmlWs) {
  EXPECT_EQ(trim_xml_ws("  a b \t\r\n"), "a b");
  EXPECT_EQ(trim_xml_ws(""), "");
  EXPECT_EQ(trim_xml_ws(" \n\t "), "");
  EXPECT_EQ(trim_xml_ws("x"), "x");
}

}  // namespace
}  // namespace bxsoap
