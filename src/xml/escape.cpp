#include "xml/escape.hpp"

namespace bxsoap::xml {

std::string escape_text(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped_text(out, s);
  return out;
}

std::string escape_attr(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  append_escaped_attr(out, s);
  return out;
}

}  // namespace bxsoap::xml
