// The typed-XML annotation grammar write_xml() emits (xsi:type,
// bx:arrayType, bx:itemName, bx:at-*), read by both typed decoders:
// xml::retype() over an untyped tree and xml::parse_typed_xml() while it
// reads start tags. Keeping the rules here means the one-pass decoder and
// its oracle cannot drift apart. Internal to the xml module.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xdm/node.hpp"

namespace bxsoap::xml::detail {

/// Innermost binding of `prefix` in `scope` (declarations in document
/// order, outermost first), or "" when unbound.
std::string_view resolve_in(std::span<const xdm::NamespaceDecl> scope,
                            std::string_view prefix);

/// What an element's annotations make of it.
struct TypedShape {
  enum class Kind { kComponent, kLeaf, kArray };
  Kind kind = Kind::kComponent;
  xdm::AtomType type = xdm::AtomType::kString;
  /// bx:itemName of an array; unset when absent.
  std::optional<std::string> item_name;
};

/// Remove xsi:type (a leaf) or else bx:arrayType and bx:itemName (an
/// array) from `attrs` and resolve the type name against `scope`, which
/// must include the element's own declarations. Throws DecodeError for a
/// malformed or unknown type name.
TypedShape take_shape(std::vector<xdm::Attribute>& attrs,
                      std::span<const xdm::NamespaceDecl> scope);

/// Give `dst` the declarations in `decls` minus those of the reserved
/// xsi/xsd/bx namespaces, and the attributes in `attrs` minus every bx:
/// annotation, each bx:at-<name>="xsd:T" converting attribute <name> to T.
/// Throws DecodeError for a bad annotation or one naming no attribute.
void finish_typed_element(xdm::ElementBase& dst,
                          std::span<const xdm::NamespaceDecl> decls,
                          std::vector<xdm::Attribute> attrs,
                          std::span<const xdm::NamespaceDecl> scope,
                          bool era_number_parsing);

void adopt_or_reject_array_item(std::optional<std::string>& item_name,
                                std::string_view local, bool prefixed,
                                bool has_markup);

/// The array item rule: every item is an unprefixed element named
/// `item_name` (bx:itemName, else the first item's name) with no
/// attributes or declarations, because the typed form keeps only values
/// and could not write anything else back. Sets `item_name` from the first
/// item; throws DecodeError for an item that breaks the rule.
inline void check_array_item(std::optional<std::string>& item_name,
                             std::string_view local, bool prefixed,
                             bool has_markup) {
  if (item_name && local == *item_name && !prefixed && !has_markup) return;
  adopt_or_reject_array_item(item_name, local, prefixed, has_markup);
}

}  // namespace bxsoap::xml::detail
