// Conversions between native numbers and their XML text form.
//
// The paper's central performance observation is that float<->ASCII
// conversion dominates textual-XML SOAP for scientific data, so these
// routines sit on the hot path of the XML encoding policy and are also
// micro-benchmarked in isolation (bench_ablation_convert).
//
// Doubles are formatted with the shortest representation that round-trips,
// byte for byte what std::to_chars(double) writes, which satisfies BXSA's
// transcodability rule of "full precision regardless of the original
// input". Both directions have an exact fast path for short decimals (at
// most 15 significant digits, e.g. the two-decimal values of a LEAD
// dataset); everything else goes through std::to_chars / std::from_chars.
//
// * Formatting (detail::write_short_double): for a normal double v with
//   1e-5 <= |v| < 1e15, take n = round(|v| * 10^k) with 15 digits and
//   accept it only if double(n) / 10^k == |v|. n, 10^k (k <= 22) and the
//   correctly rounded division are exact, so the test holds exactly when
//   the decimal n * 10^-k rounds to v. No two decimals of at most 15
//   significant digits can round to one double (their spacing exceeds the
//   double's rounding interval; DBL_DIG is 15), so n with its trailing
//   zeros stripped is the unique shortest representation, the digits
//   to_chars picks. It is printed in fixed notation when that is no longer
//   than scientific (to_chars' rule, fixed wins a tie); otherwise, and for
//   16-17 digit values, zero, subnormals, huge values, inf and nan,
//   to_chars runs. Floats always use to_chars: reaching a float's shortest
//   digits through a double rounds twice.
// * Parsing (parse_short_decimal): `[+-]digits[.digits]` with at least one
//   digit on each side of the point and at most 15 digits in all is
//   n / 10^f with n < 10^15 and f <= 15, both exact, so the one correctly
//   rounded division gives what from_chars returns. Integers take the same
//   scan without a point and a range check. Any other text (more digits,
//   exponents, "1.", ".5", whitespace, inf/nan) is left to from_chars.
#pragma once

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

namespace bxsoap {

std::string format_int64(std::int64_t v);
std::string format_uint64(std::uint64_t v);
std::string format_double(double v);
std::string format_float(float v);

/// Room write_number() may use: more than any number's text (the longest
/// shortest double, "-2.2250738585072014e-308", has 24 characters).
inline constexpr std::size_t kMaxNumberChars = 32;

namespace detail {

inline constexpr double kPow10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};

inline constexpr char kDigitPairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536"
    "37383940414243444546474849505152535455565758596061626364656667686970717273"
    "7475767778798081828384858687888990919293949596979899";

/// Write the decimal digits of `n` so that they end at `end`; returns
/// where they start.
inline char* write_digits_backward(char* end, std::uint64_t n) {
  while (n >= 100) {
    end -= 2;
    std::memcpy(end, kDigitPairs + 2 * (n % 100), 2);
    n /= 100;
  }
  if (n >= 10) {
    end -= 2;
    std::memcpy(end, kDigitPairs + 2 * n, 2);
  } else {
    *--end = static_cast<char>('0' + n);
  }
  return end;
}

/// The short-decimal formatter (see the file comment): writes what
/// std::to_chars(v) would at `p` and returns the end, or returns nullptr
/// having written nothing when v is not a short decimal printed in fixed
/// notation.
inline char* write_short_double(char* p, double v) {
  const auto sign_and_bits = std::bit_cast<std::uint64_t>(v);
  const auto bits = sign_and_bits & ~(std::uint64_t{1} << 63);
  const bool negative = bits != sign_and_bits;
  // Non-negative doubles order as their bit patterns: this is
  // 1e-5 <= |v| < 1e15, false for 0, inf and nan too.
  constexpr auto kLow = std::bit_cast<std::uint64_t>(1e-5);
  constexpr auto kHigh = std::bit_cast<std::uint64_t>(1e15);
  if (bits - kLow >= kHigh - kLow) return nullptr;
  const auto a = std::bit_cast<double>(bits);

  // a lies in [2^e2, 2^(e2+1)), so floor(e2 * log10 2) is its decimal
  // exponent or one less; k makes round(a * 10^k) a 15-digit integer.
  const int e2 = static_cast<int>(bits >> 52) - 1023;
  int k = 14 - ((e2 * 78913) >> 18);  // 78913 / 2^18 ~ log10 2
  double scaled = a * kPow10[k];
  if (scaled >= 1e15) scaled = a * kPow10[--k];
  // Signed conversions: x86-64 has single instructions for those only.
  const auto rounded = static_cast<std::int64_t>(scaled + 0.5);
  if (rounded < 100000000000000 || rounded >= 1000000000000000 ||
      static_cast<double>(rounded) / kPow10[k] != a) {
    return nullptr;
  }
  auto n = static_cast<std::uint64_t>(rounded);

  int digits = 15;
  if (n % 100000000 == 0) n /= 100000000, digits -= 8;
  if (n % 10000 == 0) n /= 10000, digits -= 4;
  if (n % 100 == 0) n /= 100, digits -= 2;
  if (n % 10 == 0) n /= 10, digits -= 1;

  // a = 0.d1d2... * 10^(exp10 + 1). Scientific notation takes the digits,
  // a point after the first of several and "e+XX" (|exp10| < 100 here).
  const int exp10 = 14 - k;
  const int fixed_len = exp10 < 0             ? digits + 1 - exp10
                        : digits > exp10 + 1  ? digits + 1
                                              : exp10 + 1;
  if (fixed_len > digits + (digits > 1) + 4) return nullptr;

  char buf[16];
  const char* first = write_digits_backward(buf + sizeof buf, n);
  if (negative) *p++ = '-';
  if (exp10 < 0) {
    *p++ = '0';
    *p++ = '.';
    std::memset(p, '0', static_cast<std::size_t>(-exp10 - 1));
    p += -exp10 - 1;
    std::memcpy(p, first, static_cast<std::size_t>(digits));
    return p + digits;
  }
  const int int_digits = exp10 + 1;
  if (digits <= int_digits) {
    std::memcpy(p, first, static_cast<std::size_t>(digits));
    p += digits;
    std::memset(p, '0', static_cast<std::size_t>(int_digits - digits));
    return p + (int_digits - digits);
  }
  std::memcpy(p, first, static_cast<std::size_t>(int_digits));
  p += int_digits;
  *p++ = '.';
  std::memcpy(p, first + int_digits,
              static_cast<std::size_t>(digits - int_digits));
  return p + (digits - int_digits);
}

}  // namespace detail

/// A decimal read by scan_short_decimal: (negative ? -1 : 1) * digits /
/// 10^frac_digits.
struct ShortDecimal {
  std::uint64_t digits = 0;
  int frac_digits = 0;
  bool negative = false;
  /// The scanned text is `[+-]digits[.digits]`, at most 15 digits in all.
  bool valid = false;
};

/// Scan a short decimal from `p`, stopping at the first character that
/// cannot continue one (everything before it is a sign, digit or point).
/// Returns where the scan stopped; `d.valid` says whether the text up to
/// there is a whole short decimal.
inline const char* scan_short_decimal(const char* p, const char* end,
                                      ShortDecimal& d) {
  auto is_digit = [&p, end] {
    return p != end && static_cast<unsigned char>(*p - '0') < 10;
  };
  d = {};
  if (p != end && (*p == '-' || *p == '+')) d.negative = *p++ == '-';
  std::uint64_t n = 0;  // wraps past 19 digits, but then count > 15
  const char* const int_start = p;
  while (is_digit()) n = n * 10 + static_cast<unsigned>(*p++ - '0');
  std::ptrdiff_t count = p - int_start;
  if (count == 0) return p;
  if (p != end && *p == '.') {
    const char* const frac_start = ++p;
    while (is_digit()) n = n * 10 + static_cast<unsigned>(*p++ - '0');
    const std::ptrdiff_t frac = p - frac_start;
    if (frac == 0) return p;  // "1." is from_chars' call
    count += frac;
    d.frac_digits = static_cast<int>(std::min<std::ptrdiff_t>(frac, 16));
  }
  d.digits = n;
  d.valid = count <= 15;
  return p;
}

/// The value of a valid ShortDecimal as T, or false when from_chars must
/// decide: floats, a point in an integer, out-of-range integers.
template <typename T>
bool short_decimal_value(const ShortDecimal& d, T& out) {
  if constexpr (std::is_same_v<T, double>) {
    const double x =
        static_cast<double>(d.digits) / detail::kPow10[d.frac_digits];
    out = d.negative ? -x : x;
    return true;
  } else if constexpr (std::is_integral_v<T>) {
    if (d.frac_digits != 0) return false;
    if constexpr (std::is_signed_v<T>) {
      const auto v = static_cast<std::int64_t>(d.digits);  // < 10^15
      const std::int64_t s = d.negative ? -v : v;
      if (s < std::numeric_limits<T>::min() ||
          s > std::numeric_limits<T>::max()) {
        return false;
      }
      out = static_cast<T>(s);
    } else {
      constexpr auto kMax =
          static_cast<std::uint64_t>(std::numeric_limits<T>::max());
      if (d.negative || d.digits > kMax) {
        return false;
      }
      out = static_cast<T>(d.digits);
    }
    return true;
  } else {
    return false;
  }
}

/// The fast path of parse_double and the integer parsers: true, with the
/// value from_chars would give, when all of `s` is a short decimal T can
/// hold; false when from_chars must decide (it may still accept `s`).
template <typename T>
bool parse_short_decimal(std::string_view s, T& out) {
  // Declined unscanned: full-precision doubles (16-17 digits and a point)
  // then cost one compare more than from_chars; short decimals this long
  // (15 digits, point and sign) are rare.
  if (s.size() > 16) return false;
  ShortDecimal d;
  return scan_short_decimal(s.data(), s.data() + s.size(), d) ==
             s.data() + s.size() &&
         d.valid && short_decimal_value(d, out);
}

/// Write the text format_* gives for `v` at `p`, which must have
/// kMaxNumberChars of room; returns the end.
inline char* write_number(char* p, double v) {
  if (char* end = detail::write_short_double(p, v)) return end;
  return std::to_chars(p, p + kMaxNumberChars, v).ptr;
}
template <typename T>
  requires(std::is_same_v<T, float> || std::is_same_v<T, std::int64_t> ||
           std::is_same_v<T, std::uint64_t>)
char* write_number(char* p, T v) {
  return std::to_chars(p, p + kMaxNumberChars, v).ptr;
}

/// Append formatted text to `out` without allocating a temporary string.
/// `Out` is std::string or any text sink supporting `out += string_view`
/// (the XML writer's wire-buffer sink).
template <typename Out, typename T>
void append_number(Out& out, T v) {
  char buf[kMaxNumberChars];
  const char* const end = write_number(buf, v);
  out += std::string_view(buf, static_cast<std::size_t>(end - buf));
}
template <typename Out>
void append_int64(Out& out, std::int64_t v) {
  append_number(out, v);
}
template <typename Out>
void append_uint64(Out& out, std::uint64_t v) {
  append_number(out, v);
}
template <typename Out>
void append_double(Out& out, double v) {
  append_number(out, v);
}
template <typename Out>
void append_float(Out& out, float v) {
  append_number(out, v);
}

/// Parse the full string_view as a number. The entire input must be consumed
/// (leading/trailing junk fails); XML whitespace should be trimmed by the
/// caller. Returns nullopt on failure.
std::optional<std::int64_t> parse_int64(std::string_view s);
std::optional<std::uint64_t> parse_uint64(std::string_view s);
std::optional<double> parse_double(std::string_view s);
std::optional<float> parse_float(std::string_view s);

/// Strip XML whitespace (space, tab, CR, LF) from both ends.
std::string_view trim_xml_ws(std::string_view s);

}  // namespace bxsoap
