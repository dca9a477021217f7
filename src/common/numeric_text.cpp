#include "common/numeric_text.hpp"

#include <charconv>
#include <system_error>

namespace bxsoap {

namespace {

template <typename T>
std::optional<T> parse_via_from_chars(std::string_view s) {
  T v{};
  if constexpr (!std::is_same_v<T, float>) {
    if (parse_short_decimal(s, v)) return v;
  }
  if (s.empty()) return std::nullopt;
  const char* first = s.data();
  const char* last = s.data() + s.size();
  // XML Schema allows a leading '+' which from_chars does not.
  if (*first == '+') ++first;
  auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || ptr != last) return std::nullopt;
  return v;
}

}  // namespace

std::string format_int64(std::int64_t v) {
  std::string s;
  append_int64(s, v);
  return s;
}
std::string format_uint64(std::uint64_t v) {
  std::string s;
  append_uint64(s, v);
  return s;
}
std::string format_double(double v) {
  std::string s;
  append_double(s, v);
  return s;
}
std::string format_float(float v) {
  std::string s;
  append_float(s, v);
  return s;
}

std::optional<std::int64_t> parse_int64(std::string_view s) {
  return parse_via_from_chars<std::int64_t>(s);
}
std::optional<std::uint64_t> parse_uint64(std::string_view s) {
  return parse_via_from_chars<std::uint64_t>(s);
}
std::optional<double> parse_double(std::string_view s) {
  return parse_via_from_chars<double>(s);
}
std::optional<float> parse_float(std::string_view s) {
  return parse_via_from_chars<float>(s);
}

std::string_view trim_xml_ws(std::string_view s) {
  auto is_ws = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!s.empty() && is_ws(s.front())) s.remove_prefix(1);
  while (!s.empty() && is_ws(s.back())) s.remove_suffix(1);
  return s;
}

}  // namespace bxsoap
