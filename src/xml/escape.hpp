// XML 1.0 character escaping.
#pragma once

#include <string>
#include <string_view>

namespace bxsoap::xml {

namespace detail {

/// Append `s` to `out`, replacing each character `entity(c)` maps to a
/// non-empty reference; unescaped runs are appended in bulk.
template <typename Out, typename Entity>
void append_escaped(Out& out, std::string_view s, Entity entity) {
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::string_view ref = entity(s[i]);
    if (ref.empty()) continue;
    out += s.substr(run, i - run);
    out += ref;
    run = i + 1;
  }
  out += s.substr(run);
}

}  // namespace detail

/// Escape for element content: & < > (plus ]]> safety). `Out` is
/// std::string or any sink supporting `out += string_view`.
template <typename Out>
void append_escaped_text(Out& out, std::string_view s) {
  detail::append_escaped(out, s, [](char c) -> std::string_view {
    switch (c) {
      case '&':
        return "&amp;";
      case '<':
        return "&lt;";
      case '>':
        // Only ]]> strictly requires escaping '>', but escaping it always
        // is the conventional safe choice.
        return "&gt;";
      default:
        return {};
    }
  });
}

/// Escape for a double-quoted attribute value: also " and newlines/tabs
/// (attribute-value normalization would otherwise fold them).
template <typename Out>
void append_escaped_attr(Out& out, std::string_view s) {
  detail::append_escaped(out, s, [](char c) -> std::string_view {
    switch (c) {
      case '&':
        return "&amp;";
      case '<':
        return "&lt;";
      case '>':
        return "&gt;";
      case '"':
        return "&quot;";
      case '\n':
        return "&#10;";
      case '\r':
        return "&#13;";
      case '\t':
        return "&#9;";
      default:
        return {};
    }
  });
}

std::string escape_text(std::string_view s);
std::string escape_attr(std::string_view s);

}  // namespace bxsoap::xml
