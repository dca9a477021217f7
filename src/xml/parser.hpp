// A non-validating XML 1.0 parser with two entry points over one scanner.
//
// Supported: elements, attributes, namespace resolution (xmlns / xmlns:p,
// default-namespace undeclaration), character data, entity references
// (&amp; &lt; &gt; &quot; &apos;), numeric character references (decimal and
// hex, encoded back to UTF-8), CDATA sections, comments, processing
// instructions and the XML declaration. DOCTYPE declarations are rejected
// (no DTD support — SOAP explicitly forbids them anyway).
//
// parse_xml() builds an untyped bXDM tree: every element a component
// Element, every attribute value a string.
//
// parse_typed_xml() is the decode path of XmlEncoding and xml_to_bxsa: one
// pass that reads the xsi:type / bx:* annotations off each start tag and
// builds LeafElement<T> / ArrayElement<T> directly, parsing array items
// straight into the packed vector with no per-item node. It returns
// exactly what xml::retype(*parse_xml(text)) returns, and rejects exactly
// what that rejects; retype stays as its test oracle and as the
// era-faithful (strtod) decode of the benchmarks.
#pragma once

#include <string_view>

#include "common/error.hpp"
#include "xdm/node.hpp"

namespace bxsoap::xml {

class ParseError : public DecodeError {
 public:
  ParseError(const std::string& what, std::size_t line, std::size_t column)
      : DecodeError("xml:" + std::to_string(line) + ":" +
                    std::to_string(column) + ": " + what),
        line_(line),
        column_(column) {}

  std::size_t line() const noexcept { return line_; }
  std::size_t column() const noexcept { return column_; }

 private:
  std::size_t line_;
  std::size_t column_;
};

struct ParseOptions {
  /// Drop text nodes consisting only of XML whitespace between elements
  /// (convenient for hand-written test documents; keep OFF for round-trip
  /// fidelity).
  bool ignore_whitespace = false;
  /// Maximum element nesting depth. The parser (and the tree it builds)
  /// recurse per level, so unbounded depth is a stack-exhaustion attack;
  /// 1024 is far beyond any real SOAP message.
  std::size_t max_depth = 1024;
};

/// Parse a complete document. Throws ParseError on malformed input.
xdm::DocumentPtr parse_xml(std::string_view text,
                           const ParseOptions& opt = {});

/// Parse and type a complete document in one pass; equal to
/// retype(*parse_xml(text, opt)). Throws DecodeError (ParseError for
/// malformed XML) on any input either of those rejects.
xdm::DocumentPtr parse_typed_xml(std::string_view text,
                                 const ParseOptions& opt = {});

}  // namespace bxsoap::xml
