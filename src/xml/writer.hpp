// Textual XML 1.0 serialization of bXDM (the XMLEncoding side of the paper's
// transcodability requirement).
//
// Typed nodes are lowered to plain XML as follows (all annotations live in
// reserved namespaces and are stripped again by the typed re-parse):
//
//   LeafElement<T>   ->  <name xsi:type="xsd:T">text</name>
//   ArrayElement<T>  ->  <name bx:arrayType="xsd:T" bx:itemName="d">
//                          <d>item0</d><d>item1</d>...
//                        </name>
//   typed Attribute  ->  name="text" plus bx:at-name="xsd:T"
//                        (XML has no standard typed-attribute syntax; this
//                        is our documented extension, per the paper's note
//                        that the XML serialization "should contain the type
//                        information explicitly" when no schema is known)
//
// With `emit_type_info = false` the writer produces the paper's plain,
// schema-free XML (what Table 1 measures): no annotations, arrays as bare
// repeated elements.
#pragma once

#include <string>

#include "common/buffer.hpp"
#include "xdm/node.hpp"

namespace bxsoap::xml {

struct WriteOptions {
  /// Emit xsi:type / bx:* annotations so the document can be re-typed.
  bool emit_type_info = true;
  /// Emit an <?xml version="1.0" encoding="UTF-8"?> declaration.
  bool xml_decl = false;
  /// Pretty-print with newlines and this indent (0 = compact single line).
  int indent = 0;
  /// Format numbers with snprintf("%.17g") the way 2005-era SOAP stacks
  /// did, instead of std::to_chars. Same values on the wire (full
  /// precision round-trips), but the CONVERSION cost matches the era the
  /// paper measured — the paper's central claim is that this conversion
  /// dominates textual-XML SOAP for scientific data. Used by the
  /// era-faithful benchmark series and bench_ablation_convert.
  bool era_number_formatting = false;
};

/// Serialize any bXDM node to XML text.
std::string write_xml(const xdm::Node& node, const WriteOptions& opt = {});

/// Convenience for the common document case.
std::string write_xml(const xdm::Document& doc, const WriteOptions& opt = {});

/// Append the same bytes write_xml() returns straight to `out` (a wire
/// buffer, possibly with a frame header already reserved).
void write_xml(const xdm::Node& node, ByteWriter& out,
               const WriteOptions& opt = {});

}  // namespace bxsoap::xml
