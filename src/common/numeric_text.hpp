// Conversions between native numbers and their XML text form.
//
// The paper's central performance observation is that float<->ASCII
// conversion dominates textual-XML SOAP for scientific data, so these
// routines sit on the hot path of the XML encoding policy and are also
// micro-benchmarked in isolation (bench_ablation_convert).
//
// Doubles are formatted with the shortest representation that round-trips
// (std::to_chars default), which satisfies BXSA's transcodability rule of
// "full precision regardless of the original input".
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace bxsoap {

std::string format_int64(std::int64_t v);
std::string format_uint64(std::uint64_t v);
std::string format_double(double v);
std::string format_float(float v);

namespace detail {
template <typename Out, typename T>
void append_via_to_chars(Out& out, T v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // cannot fail for arithmetic types with a 64-byte buffer
  out += std::string_view(buf, static_cast<std::size_t>(ptr - buf));
}
}  // namespace detail

/// Append formatted text to `out` without allocating a temporary string.
/// `Out` is std::string or any text sink supporting `out += string_view`
/// (the XML writer's wire-buffer sink).
template <typename Out>
void append_int64(Out& out, std::int64_t v) {
  detail::append_via_to_chars(out, v);
}
template <typename Out>
void append_uint64(Out& out, std::uint64_t v) {
  detail::append_via_to_chars(out, v);
}
template <typename Out>
void append_double(Out& out, double v) {
  detail::append_via_to_chars(out, v);
}
template <typename Out>
void append_float(Out& out, float v) {
  detail::append_via_to_chars(out, v);
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
