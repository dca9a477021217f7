// Typed re-parse: reconstruct LeafElement<T> / ArrayElement<T> from the
// annotations write_xml() emits (xsi:type, bx:arrayType, bx:itemName,
// bx:at-*) on an untyped tree. This is the second half of the paper's
// transcodability story:
//
//   bXDM --write_xml--> text --parse_xml--> untyped bXDM --retype--> bXDM
//
// must reproduce the original tree (floats at full precision). Annotation
// attributes and declarations of the xsi/xsd/bx namespaces are consumed and
// removed so the round trip leaves no residue. Array items must be
// unprefixed elements that all carry the item name and no attributes or
// declarations; anything else could not be written back and is rejected.
//
// Production decode does not come this way: xml::parse_typed_xml() builds
// the same typed tree in one pass with no untyped tree in between.
// retype() is its test oracle (same tree, or both reject) and the
// era-faithful decode (RetypeOptions::era_number_parsing) of the
// benchmarks.
//
// The paper's SOAP-encoding-rule note applies: without a schema, the textual
// form must carry explicit type information, otherwise retype() has nothing
// to go on and returns the element untouched (still a component Element).
#pragma once

#include "xdm/node.hpp"

namespace bxsoap::xml {

struct RetypeOptions {
  /// Parse numbers with strtod/strtoll the way 2005-era stacks did instead
  /// of std::from_chars. Values are identical; the CPU cost matches the
  /// era the paper measured (the read-side twin of
  /// xml::WriteOptions::era_number_formatting).
  bool era_number_parsing = false;
};

/// Rebuild a typed tree from an untyped parse. Unannotated elements pass
/// through unchanged. Throws DecodeError when an annotation is malformed
/// (unknown type name, leaf with element children, non-numeric array item,
/// an array item that would be lost).
xdm::DocumentPtr retype(const xdm::Document& doc,
                        const RetypeOptions& opt = {});

/// Element-level entry point (used by tests and the SOAP body decoder).
xdm::NodePtr retype_element(const xdm::ElementBase& element,
                            const RetypeOptions& opt = {});

}  // namespace bxsoap::xml
