#include "xml/parser.hpp"

#include <vector>

#include "xml/reader.hpp"

namespace bxsoap::xml {

using namespace bxsoap::xdm;

namespace detail {

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp <= 0x7F) {
    out.push_back(static_cast<char>(cp));
  } else if (cp <= 0x7FF) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp <= 0xFFFF) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

DocumentPtr XmlReader::parse() {
  auto doc = std::make_unique<Document>();
  skip_prolog_ws_and_decl();
  bool saw_root = false;
  while (!eof()) {
    if (peek() != '<') {
      // Top-level text must be whitespace only.
      if (!is_ws(peek())) {
        fail("character data is not allowed outside the root element");
      }
      ++pos_;
      continue;
    }
    if (starts_with("<!--")) {
      doc->add_child(parse_comment());
    } else if (starts_with("<?")) {
      doc->add_child(parse_pi());
    } else if (starts_with("<!DOCTYPE")) {
      fail("DOCTYPE is not supported (SOAP forbids DTDs)");
    } else {
      if (saw_root) fail("multiple root elements");
      ns_stack_.clear();
      doc->add_child(parse_element());
      saw_root = true;
    }
  }
  if (!saw_root) fail("document has no root element");
  return doc;
}

void XmlReader::fail(const std::string& why) const {
  const std::string_view seen = s_.substr(0, pos_);
  const auto line = 1 + std::count(seen.begin(), seen.end(), '\n');
  const std::size_t last_nl = seen.rfind('\n');
  const std::size_t line_start =
      last_nl == std::string_view::npos ? 0 : last_nl + 1;
  throw ParseError(why, static_cast<std::size_t>(line),
                   seen.size() - line_start + 1);
}

/// Advance past the next occurrence of `t` and return the text before it.
std::string_view XmlReader::read_until(std::string_view t,
                                       const char* unterminated) {
  const std::size_t end = s_.find(t, pos_);
  if (end == std::string_view::npos) {
    pos_ = s_.size();
    fail(unterminated);
  }
  const std::string_view text = s_.substr(pos_, end - pos_);
  pos_ = end + t.size();
  return text;
}

void XmlReader::decode_reference(std::string& out) {
  // '&' already consumed.
  const std::size_t start = pos_;
  while (!eof() && peek() != ';') {
    ++pos_;
    if (pos_ - start > 10) fail("unterminated entity reference");
  }
  if (eof()) fail("unterminated entity reference");
  const std::string_view name = s_.substr(start, pos_ - start);
  ++pos_;  // ';'
  if (name == "amp") {
    out.push_back('&');
  } else if (name == "lt") {
    out.push_back('<');
  } else if (name == "gt") {
    out.push_back('>');
  } else if (name == "quot") {
    out.push_back('"');
  } else if (name == "apos") {
    out.push_back('\'');
  } else if (!name.empty() && name[0] == '#') {
    std::uint32_t cp = 0;
    bool any = false;
    if (name.size() > 1 && (name[1] == 'x' || name[1] == 'X')) {
      for (std::size_t i = 2; i < name.size(); ++i) {
        const char h = name[i];
        std::uint32_t d;
        if (h >= '0' && h <= '9') d = static_cast<std::uint32_t>(h - '0');
        else if (h >= 'a' && h <= 'f') d = static_cast<std::uint32_t>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F') d = static_cast<std::uint32_t>(h - 'A' + 10);
        else fail("bad hex character reference");
        cp = cp * 16 + d;
        any = true;
      }
    } else {
      for (std::size_t i = 1; i < name.size(); ++i) {
        const char d = name[i];
        if (d < '0' || d > '9') fail("bad character reference");
        cp = cp * 10 + static_cast<std::uint32_t>(d - '0');
        any = true;
      }
    }
    if (!any || cp > 0x10FFFF) fail("bad character reference");
    append_utf8(out, cp);
  } else {
    fail("unknown entity '&" + std::string(name) + ";' (no DTD support)");
  }
}

// ---- namespaces -------------------------------------------------------------

std::string_view XmlReader::resolve_prefix(std::string_view prefix) {
  for (auto it = ns_stack_.rbegin(); it != ns_stack_.rend(); ++it) {
    if (it->prefix == prefix) return it->uri;
  }
  if (prefix.empty()) return {};
  if (prefix == "xml") return "http://www.w3.org/XML/1998/namespace";
  fail("unbound namespace prefix '" + std::string(prefix) + "'");
}

QName XmlReader::make_qname(std::string_view raw, bool is_attribute) {
  const auto colon = raw.find(':');
  if (colon == std::string_view::npos) {
    if (is_attribute) return QName(std::string(raw));  // no namespace
    return QName(std::string(resolve_prefix("")), std::string(raw));
  }
  const std::string_view prefix = raw.substr(0, colon);
  const std::string_view local = raw.substr(colon + 1);
  if (local.empty() || local.find(':') != std::string_view::npos) {
    fail("malformed QName '" + std::string(raw) + "'");
  }
  return QName(std::string(resolve_prefix(prefix)), std::string(local),
               std::string(prefix));
}

// ---- productions ------------------------------------------------------------

void XmlReader::skip_prolog_ws_and_decl() {
  skip_ws();
  if (starts_with("<?xml") && s_.size() > pos_ + 5 &&
      (is_ws(s_[pos_ + 5]) || s_[pos_ + 5] == '?')) {
    read_until("?>", "unterminated XML declaration");
  }
}

NodePtr XmlReader::parse_comment() {
  expect_str("<!--");
  const std::size_t start = pos_;
  const std::string_view text = read_until("-->", "unterminated comment");
  if (const auto dashes = text.find("--"); dashes != std::string_view::npos) {
    pos_ = start + dashes;
    fail("'--' is not allowed inside a comment");
  }
  return std::make_unique<CommentNode>(std::string(text));
}

NodePtr XmlReader::parse_pi() {
  expect_str("<?");
  const std::string_view target = read_name();
  if (target == "xml") fail("XML declaration only allowed at the start");
  skip_ws();
  const std::string_view data =
      read_until("?>", "unterminated processing instruction");
  return std::make_unique<PINode>(std::string(target), std::string(data));
}

void XmlReader::read_cdata(std::string& out) {
  expect_str("<![CDATA[");
  out.append(read_until("]]>", "unterminated CDATA section"));
}

void XmlReader::mismatched_end_tag(std::string_view closing,
                                   std::string_view expected) const {
  fail("mismatched end tag </" + std::string(closing) + ">, expected </" +
       std::string(expected) + ">");
}

void XmlReader::depth_exceeded() const {
  fail("element nesting exceeds the depth limit of " +
       std::to_string(opt_.max_depth));
}

XmlReader::StartTag XmlReader::read_start_tag() {
  struct RawAttr {
    std::string_view name;
    std::string value;
  };

  expect('<');
  StartTag tag;
  tag.raw_name = read_name();

  // Collect raw attributes first: xmlns declarations must be in force
  // before any QName (including the element's own) is resolved.
  std::vector<RawAttr> raw_attrs;
  for (;;) {
    const bool had_ws = !eof() && is_ws(peek());
    skip_ws();
    if (eof()) fail("unterminated start tag");
    if (peek() == '>') {
      ++pos_;
      break;
    }
    if (peek() == '/') {
      ++pos_;
      expect('>');
      tag.self_closing = true;
      break;
    }
    if (!had_ws) fail("expected whitespace before attribute");
    RawAttr a;
    a.name = read_name();
    skip_ws();
    expect('=');
    skip_ws();
    if (eof() || (peek() != '"' && peek() != '\'')) {
      fail("attribute value must be quoted");
    }
    const char quote = s_[pos_++];
    read_char_data(a.value, quote);
    // At the end of input there is no byte to look at: report the open
    // value without peeking past the buffer.
    if (eof()) fail("unterminated attribute value");
    if (peek() != quote) fail("'<' in attribute value");
    ++pos_;
    raw_attrs.push_back(std::move(a));
  }

  std::vector<RawAttr*> plain;
  for (auto& a : raw_attrs) {
    if (a.name == "xmlns") {
      tag.decls.push_back({"", a.value});
      ns_stack_.push_back(tag.decls.back());
    } else if (a.name.starts_with("xmlns:")) {
      const std::string_view prefix = a.name.substr(6);
      if (prefix.empty() || a.value.empty()) {
        fail("namespace prefix must bind a non-empty URI");
      }
      tag.decls.push_back({std::string(prefix), a.value});
      ns_stack_.push_back(tag.decls.back());
    } else {
      plain.push_back(&a);
    }
  }

  for (RawAttr* a : plain) {
    QName qn = make_qname(a->name, true);
    for (const auto& seen : tag.attrs) {
      if (seen.name == qn) {
        fail("duplicate attribute '" + std::string(a->name) + "'");
      }
    }
    tag.attrs.emplace_back(std::move(qn), ScalarValue(std::move(a->value)));
  }
  return tag;
}

NodePtr XmlReader::parse_element() {
  enter_element();
  const std::size_t ns_mark = ns_stack_.size();
  StartTag tag = read_start_tag();
  auto element = std::make_unique<Element>(element_name(tag));
  for (auto& d : tag.decls) {
    element->declare_namespace(std::move(d.prefix), std::move(d.uri));
  }
  element->attributes() = std::move(tag.attrs);
  if (!tag.self_closing) parse_content(*element, tag.raw_name);
  leave_element(ns_mark);
  return element;
}

void XmlReader::parse_content(Element& parent, std::string_view raw_name) {
  std::string text;
  auto flush_text = [&] {
    if (!text.empty() && !(opt_.ignore_whitespace && all_ws(text))) {
      parent.add_text(std::move(text));
    }
    text.clear();
  };

  for (;;) {
    if (eof()) fail("unterminated element <" + std::string(raw_name) + ">");
    if (peek() != '<') {
      read_char_data(text, '<');
      continue;
    }
    if (starts_with("</")) {
      flush_text();
      read_end_tag(raw_name);
      return;
    }
    if (starts_with("<!--")) {
      flush_text();
      parent.add_child(parse_comment());
    } else if (starts_with("<![CDATA[")) {
      read_cdata(text);
    } else if (starts_with("<?")) {
      flush_text();
      parent.add_child(parse_pi());
    } else if (starts_with("<!")) {
      fail("unsupported markup declaration in content");
    } else {
      flush_text();
      parent.add_child(parse_element());
    }
  }
}

}  // namespace detail

DocumentPtr parse_xml(std::string_view text, const ParseOptions& opt) {
  detail::XmlReader reader(text, opt);
  return reader.parse();
}

}  // namespace bxsoap::xml
