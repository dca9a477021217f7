// The XML 1.0 scanner behind parse_xml() and parse_typed_xml(). Internal to
// the xml module.
//
// XmlReader reads names and plain text as slices of the input and finds
// markup ends in bulk; line and column are worked out from the offset only
// when an error is thrown. Its parse_element() builds untyped component
// Elements. TypedReader (typed_parser.cpp) overrides parse_element() to
// build LeafElement<T> / ArrayElement<T> directly. TypedReader lives
// in its own translation unit on purpose: its per-type instantiations would
// otherwise use up GCC's inline-unit-growth budget for this code and slow
// parse_xml() by about a third.
#pragma once

#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "xdm/node.hpp"
#include "xml/parser.hpp"

namespace bxsoap::xml::detail {

inline bool is_ws(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

inline bool all_ws(std::string_view s) {
  return std::all_of(s.begin(), s.end(), is_ws);
}

inline bool is_name_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         static_cast<unsigned char>(c) >= 0x80;
}

inline bool is_name_char(char c) {
  return is_name_start(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

class XmlReader {
 public:
  XmlReader(std::string_view text, const ParseOptions& opt)
      : s_(text), opt_(opt) {}
  virtual ~XmlReader() = default;
  XmlReader(const XmlReader&) = delete;
  XmlReader& operator=(const XmlReader&) = delete;

  /// Parse a complete document. Throws ParseError on malformed input.
  xdm::DocumentPtr parse();

 protected:
  /// A start tag with its namespace declarations pushed onto ns_stack_ and
  /// its attribute names resolved.
  struct StartTag {
    std::string_view raw_name;
    bool self_closing = false;
    std::vector<xdm::NamespaceDecl> decls;
    std::vector<xdm::Attribute> attrs;
  };

  /// Parse one element, the cursor on its '<'. This one builds an untyped
  /// component Element.
  virtual xdm::NodePtr parse_element();

  [[noreturn]] void fail(const std::string& why) const;

  bool eof() const { return pos_ >= s_.size(); }
  /// Only valid when !eof().
  char peek() const { return s_[pos_]; }
  bool starts_with(std::string_view prefix) const {
    return s_.size() - pos_ >= prefix.size() &&
           std::memcmp(s_.data() + pos_, prefix.data(), prefix.size()) == 0;
  }
  void skip_ws() {
    while (!eof() && is_ws(peek())) ++pos_;
  }
  // The per-element scanners below are defined here, in the class, so
  // both translation units can inline them.
  void expect(char c) {
    if (eof() || peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  void expect_str(std::string_view t) {
    if (!starts_with(t)) fail("expected '" + std::string(t) + "'");
    pos_ += t.size();
  }
  std::string_view read_name() {
    if (eof() || !is_name_start(peek())) fail("expected a name");
    const std::size_t start = pos_++;
    while (!eof() && (is_name_char(peek()) || peek() == ':')) ++pos_;
    return s_.substr(start, pos_ - start);
  }
  /// Append character data up to the next '<' or `stop` (or the end) to
  /// `out`, decoding entity and character references. Runs between
  /// references are copied in bulk.
  void read_char_data(std::string& out, char stop) {
    for (;;) {
      const std::size_t start = pos_;
      while (!eof() && peek() != '<' && peek() != '&' && peek() != stop) {
        ++pos_;
      }
      out.append(s_.substr(start, pos_ - start));
      if (eof() || peek() != '&') return;
      ++pos_;
      decode_reference(out);
    }
  }
  void read_end_tag(std::string_view raw_name) {
    expect_str("</");
    const std::string_view closing = read_name();
    if (closing != raw_name) mismatched_end_tag(closing, raw_name);
    skip_ws();
    expect('>');
  }
  void read_cdata(std::string& out);
  xdm::NodePtr parse_comment();
  xdm::NodePtr parse_pi();

  /// Count one level of nesting against ParseOptions::max_depth.
  void enter_element() {
    if (++depth_ > opt_.max_depth) depth_exceeded();
  }
  /// Undo enter_element() and pop the declarations above `ns_mark`.
  void leave_element(std::size_t ns_mark) {
    ns_stack_.resize(ns_mark);
    --depth_;
  }
  StartTag read_start_tag();
  /// The element's resolved name, built straight into the node's
  /// constructor argument (no extra QName moves per element).
  xdm::QName element_name(const StartTag& tag) {
    return make_qname(tag.raw_name, false);
  }
  /// Children of a component element through its end tag; child elements
  /// go through parse_element().
  void parse_content(xdm::Element& parent, std::string_view raw_name);

  std::string_view s_;
  ParseOptions opt_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
  /// Declarations in force, outermost first.
  std::vector<xdm::NamespaceDecl> ns_stack_;

 private:
  std::string_view read_until(std::string_view t, const char* unterminated);
  void decode_reference(std::string& out);
  [[noreturn]] void mismatched_end_tag(std::string_view closing,
                                       std::string_view expected) const;
  [[noreturn]] void depth_exceeded() const;
  std::string_view resolve_prefix(std::string_view prefix);
  xdm::QName make_qname(std::string_view raw, bool is_attribute);
  void skip_prolog_ws_and_decl();
};

}  // namespace bxsoap::xml::detail
