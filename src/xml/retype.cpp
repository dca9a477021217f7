#include "xml/retype.hpp"

#include <vector>

#include "common/numeric_text.hpp"
#include "xml/annotations.hpp"

namespace bxsoap::xml {

using namespace bxsoap::xdm;

namespace {

using detail::TypedShape;

class Retyper {
 public:
  explicit Retyper(const RetypeOptions& opt) : opt_(opt) {}

  NodePtr transform_element(const ElementBase& e) {
    // Already-typed shapes pass through (retype is idempotent).
    if (e.kind() != NodeKind::kElement) return e.clone();
    const auto& el = static_cast<const Element&>(e);

    const std::size_t mark = scope_.size();
    scope_.insert(scope_.end(), el.namespaces().begin(),
                  el.namespaces().end());
    NodePtr result = transform_component(el);
    scope_.resize(mark);
    return result;
  }

  DocumentPtr transform_document(const Document& doc) {
    auto out = std::make_unique<Document>();
    for (const auto& c : doc.children()) {
      if (const ElementBase* e = as_element(*c)) {
        out->add_child(transform_element(*e));
      } else {
        out->add_child(c->clone());
      }
    }
    return out;
  }

 private:
  static std::string element_text(const Element& e) {
    std::string text;
    for (const auto& c : e.children()) {
      switch (c->kind()) {
        case NodeKind::kText:
          text += static_cast<const TextNode&>(*c).text();
          break;
        case NodeKind::kComment:
        case NodeKind::kPI:
          break;  // ignorable in a typed value
        default:
          throw DecodeError("typed element <" + e.name().local +
                            "> must not have element children");
      }
    }
    return text;
  }

  template <Atomic T>
  NodePtr make_leaf(const Element& e) {
    ScalarValue v = parse(AtomTraits<T>::kType, element_text(e));
    return std::make_unique<LeafElement<T>>(e.name(), scalar_get<T>(v));
  }

  template <PackedAtomic T>
  NodePtr make_array(const Element& e, std::optional<std::string> item_name) {
    auto arr = std::make_unique<ArrayElement<T>>(e.name());
    for (const auto& c : e.children()) {
      switch (c->kind()) {
        case NodeKind::kText: {
          // Whitespace between items is tolerated; anything else is data
          // loss and rejected.
          const auto& t = static_cast<const TextNode&>(*c).text();
          if (!trim_xml_ws(t).empty()) {
            throw DecodeError("unexpected text inside array element <" +
                              e.name().local + ">");
          }
          break;
        }
        case NodeKind::kComment:
        case NodeKind::kPI:
          break;
        case NodeKind::kElement: {
          const auto& item = static_cast<const Element&>(*c);
          detail::check_array_item(
              item_name, item.name().local, !item.name().prefix.empty(),
              !item.attributes().empty() || !item.namespaces().empty());
          ScalarValue v = parse(AtomTraits<T>::kType, element_text(item));
          arr->values().push_back(scalar_get<T>(v));
          break;
        }
        default:
          throw DecodeError("unexpected typed child inside array element");
      }
    }
    if (item_name) arr->set_item_name(*item_name);
    return arr;
  }

  NodePtr transform_component(const Element& e) {
    std::vector<Attribute> attrs = e.attributes();
    TypedShape shape = detail::take_shape(attrs, scope_);

    NodePtr out;
    switch (shape.kind) {
      case TypedShape::Kind::kLeaf:
        out = visit_atom_type(shape.type, [&](auto t) {
          return make_leaf<typename decltype(t)::type>(e);
        });
        break;
      case TypedShape::Kind::kArray:
        out = visit_packed_type(shape.type, [&](auto t) {
          return make_array<typename decltype(t)::type>(
              e, std::move(shape.item_name));
        });
        break;
      case TypedShape::Kind::kComponent: {
        auto el = std::make_unique<Element>(e.name());
        for (const auto& c : e.children()) {
          if (const ElementBase* child = as_element(*c)) {
            el->add_child(transform_element(*child));
          } else {
            el->add_child(c->clone());
          }
        }
        out = std::move(el);
        break;
      }
    }
    detail::finish_typed_element(static_cast<ElementBase&>(*out),
                                 e.namespaces(), std::move(attrs), scope_,
                                 opt_.era_number_parsing);
    return out;
  }

  ScalarValue parse(AtomType t, std::string_view text) const {
    return opt_.era_number_parsing ? parse_scalar_era(t, text)
                                   : parse_scalar(t, text);
  }

  RetypeOptions opt_;
  /// Declarations in force, outermost first.
  std::vector<NamespaceDecl> scope_;
};

}  // namespace

DocumentPtr retype(const Document& doc, const RetypeOptions& opt) {
  Retyper r(opt);
  return r.transform_document(doc);
}

NodePtr retype_element(const ElementBase& element, const RetypeOptions& opt) {
  Retyper r(opt);
  return r.transform_element(element);
}

}  // namespace bxsoap::xml
