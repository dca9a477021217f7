#include "xml/annotations.hpp"

#include "common/numeric_text.hpp"
#include "xml/ns_constants.hpp"

namespace bxsoap::xml::detail {

using namespace bxsoap::xdm;

namespace {

bool is_reserved_uri(std::string_view uri) {
  return uri == kXsiUri || uri == kXsdUri || uri == kBxUri;
}

/// Parse an annotation value like "xsd:double" into an AtomType; the
/// prefix must resolve to the XML Schema namespace in scope.
AtomType parse_type_value(std::string_view value,
                          std::span<const NamespaceDecl> scope) {
  const std::string_view v = trim_xml_ws(value);
  const auto colon = v.find(':');
  if (colon == std::string_view::npos) {
    throw DecodeError("type annotation '" + std::string(v) +
                      "' has no namespace prefix");
  }
  if (resolve_in(scope, v.substr(0, colon)) != kXsdUri) {
    throw DecodeError("type annotation prefix does not resolve to the XML "
                      "Schema namespace");
  }
  auto t = atom_from_xsd_local(v.substr(colon + 1));
  if (!t) {
    throw DecodeError("unknown XML Schema type '" + std::string(v) + "'");
  }
  return *t;
}

/// Remove the first attribute with the given expanded name and return its
/// text, or nullopt.
std::optional<std::string> take_annotation(std::vector<Attribute>& attrs,
                                           std::string_view uri,
                                           std::string_view local) {
  for (auto it = attrs.begin(); it != attrs.end(); ++it) {
    if (it->name.namespace_uri == uri && it->name.local == local) {
      std::string v = it->text();
      attrs.erase(it);
      return v;
    }
  }
  return std::nullopt;
}

}  // namespace

std::string_view resolve_in(std::span<const NamespaceDecl> scope,
                            std::string_view prefix) {
  for (auto d = scope.rbegin(); d != scope.rend(); ++d) {
    if (d->prefix == prefix) return d->uri;
  }
  return {};
}

TypedShape take_shape(std::vector<Attribute>& attrs,
                      std::span<const NamespaceDecl> scope) {
  TypedShape shape;
  if (auto t = take_annotation(attrs, kXsiUri, "type")) {
    shape.kind = TypedShape::Kind::kLeaf;
    shape.type = parse_type_value(*t, scope);
  } else if (auto t = take_annotation(attrs, kBxUri, "arrayType")) {
    shape.kind = TypedShape::Kind::kArray;
    shape.item_name = take_annotation(attrs, kBxUri, "itemName");
    shape.type = parse_type_value(*t, scope);
  }
  return shape;
}

void finish_typed_element(ElementBase& dst,
                          std::span<const NamespaceDecl> decls,
                          std::vector<Attribute> attrs,
                          std::span<const NamespaceDecl> scope,
                          bool era_number_parsing) {
  for (const auto& d : decls) {
    if (!is_reserved_uri(d.uri)) dst.declare_namespace(d.prefix, d.uri);
  }
  // Typed-attribute annotations: bx:at-<local>="xsd:T".
  std::vector<Attribute> out;
  for (auto& a : attrs) {
    if (a.name.namespace_uri == kBxUri) continue;  // consumed below
    out.push_back(std::move(a));
  }
  for (const auto& a : attrs) {
    if (a.name.namespace_uri != kBxUri || !a.name.local.starts_with("at-")) {
      continue;
    }
    const std::string_view target = std::string_view(a.name.local).substr(3);
    const AtomType t = parse_type_value(a.text(), scope);
    bool found = false;
    for (auto& candidate : out) {
      if (candidate.name.namespace_uri.empty() &&
          candidate.name.local == target) {
        const std::string& text = scalar_get<std::string>(candidate.value);
        candidate.value = era_number_parsing ? parse_scalar_era(t, text)
                                             : parse_scalar(t, text);
        found = true;
        break;
      }
    }
    if (!found) {
      throw DecodeError("typed-attribute annotation for missing attribute '" +
                        std::string(target) + "'");
    }
  }
  for (auto& a : out) dst.attributes().push_back(std::move(a));
}

void adopt_or_reject_array_item(std::optional<std::string>& item_name,
                                std::string_view local, bool prefixed,
                                bool has_markup) {
  const std::string shown = "array item <" + std::string(local) + ">";
  if (prefixed) throw DecodeError(shown + " must not carry a prefix");
  if (!item_name) {
    item_name.emplace(local);
  } else if (local != *item_name) {
    throw DecodeError(shown + " does not match the item name <" +
                      *item_name + ">");
  }
  if (has_markup) {
    throw DecodeError(shown + " must not carry attributes or declarations");
  }
}

}  // namespace bxsoap::xml::detail
