// Test support for the typed XML codec: the differential oracle for
// xml::parse_typed_xml() and the edge-value trees the differential and
// writer tests run over.
//
// The oracle: parse_typed_xml(x) must build exactly what
// retype(*parse_xml(x)) builds, or both must throw DecodeError.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "xdm/node.hpp"
#include "xml/parser.hpp"
#include "xml/retype.hpp"

namespace bxsoap::xmltest {

/// First difference between two typed trees, or "" when they are equal.
/// Stricter than xdm::deep_equal: prefixes, namespace declarations and
/// array item names count, and leaf values compare bit for bit (so NaN
/// equals the same NaN and -0 differs from 0).
inline std::string typed_tree_difference(const xdm::Node& a,
                                         const xdm::Node& b,
                                         const std::string& where = "") {
  using namespace bxsoap::xdm;
  if (a.kind() != b.kind()) return where + ": node kinds differ";
  auto same_bytes = [](std::span<const std::uint8_t> x,
                       std::span<const std::uint8_t> y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size()) == 0);
  };
  auto children = [&](const std::vector<NodePtr>& x,
                      const std::vector<NodePtr>& y,
                      const std::string& at) -> std::string {
    if (x.size() != y.size()) return at + ": child counts differ";
    for (std::size_t i = 0; i < x.size(); ++i) {
      std::string d = typed_tree_difference(*x[i], *y[i],
                                            at + "[" + std::to_string(i) + "]");
      if (!d.empty()) return d;
    }
    return "";
  };
  if (a.kind() == NodeKind::kDocument) {
    return children(static_cast<const Document&>(a).children(),
                    static_cast<const Document&>(b).children(), where);
  }
  if (const ElementBase* x = as_element(a)) {
    const auto& y = static_cast<const ElementBase&>(b);
    const std::string at = where + "/" + x->name().lexical();
    if (x->name() != y.name() || x->name().prefix != y.name().prefix) {
      return at + ": names differ";
    }
    if (x->namespaces() != y.namespaces()) return at + ": declarations differ";
    if (x->attributes().size() != y.attributes().size()) {
      return at + ": attribute counts differ";
    }
    for (std::size_t i = 0; i < x->attributes().size(); ++i) {
      const Attribute& p = x->attributes()[i];
      const Attribute& q = y.attributes()[i];
      if (p.name != q.name || p.name.prefix != q.name.prefix ||
          p.type() != q.type() || p.text() != q.text()) {
        return at + "/@" + p.name.lexical() + ": attributes differ";
      }
    }
    switch (a.kind()) {
      case NodeKind::kElement:
        return children(static_cast<const Element&>(a).children(),
                        static_cast<const Element&>(b).children(), at);
      case NodeKind::kLeafElement: {
        const auto& p = static_cast<const LeafElementBase&>(a);
        const auto& q = static_cast<const LeafElementBase&>(b);
        if (p.atom_type() != q.atom_type() ||
            !same_bytes(p.native_bytes(), q.native_bytes())) {
          return at + ": leaf values differ";
        }
        return "";
      }
      default: {
        const auto& p = static_cast<const ArrayElementBase&>(a);
        const auto& q = static_cast<const ArrayElementBase&>(b);
        if (p.atom_type() != q.atom_type() || p.item_name() != q.item_name() ||
            !same_bytes(p.packed_bytes(), q.packed_bytes())) {
          return at + ": arrays differ";
        }
        return "";
      }
    }
  }
  switch (a.kind()) {
    case xdm::NodeKind::kText:
      return static_cast<const xdm::TextNode&>(a).text() ==
                     static_cast<const xdm::TextNode&>(b).text()
                 ? ""
                 : where + ": text differs";
    case xdm::NodeKind::kComment:
      return static_cast<const xdm::CommentNode&>(a).text() ==
                     static_cast<const xdm::CommentNode&>(b).text()
                 ? ""
                 : where + ": comments differ";
    default: {
      const auto& p = static_cast<const xdm::PINode&>(a);
      const auto& q = static_cast<const xdm::PINode&>(b);
      return p.target() == q.target() && p.data() == q.data()
                 ? ""
                 : where + ": PIs differ";
    }
  }
}

/// Run both typed decoders over `text`. Returns true when both accepted
/// it (and then requires equal trees), false when both rejected it with
/// DecodeError; any disagreement is a test failure.
inline bool typed_parse_matches_oracle(std::string_view text,
                                       const xml::ParseOptions& opt = {}) {
  xdm::DocumentPtr oracle, typed;
  std::string oracle_error, typed_error;
  try {
    oracle = xml::retype(*xml::parse_xml(text, opt));
  } catch (const DecodeError& e) {
    oracle_error = e.what();
  }
  try {
    typed = xml::parse_typed_xml(text, opt);
  } catch (const DecodeError& e) {
    typed_error = e.what();
  }
  if (oracle && typed) {
    const std::string diff = typed_tree_difference(*oracle, *typed);
    EXPECT_EQ(diff, "") << "input: " << text;
    return true;
  }
  EXPECT_EQ(oracle == nullptr, typed == nullptr)
      << "input: " << text << "\noracle: "
      << (oracle ? "accepted" : oracle_error)
      << "\none-pass: " << (typed ? "accepted" : typed_error);
  return false;
}

/// Values at the edges of T's range, for all ten packed types: NaN, the
/// infinities, -0 and subnormals for floats; min, max and the values
/// around 0 for integers.
template <xdm::PackedAtomic T>
std::vector<T> edge_values() {
  using L = std::numeric_limits<T>;
  if constexpr (std::is_floating_point_v<T>) {
    return {L::quiet_NaN(), -L::quiet_NaN(), L::infinity(), -L::infinity(),
            T(0),           -T(0),           L::denorm_min(), -L::denorm_min(),
            L::min(),       L::max(),        L::lowest(),   T(0.1),
            T(-1.5),        T(1e-30)};
  } else if constexpr (std::is_signed_v<T>) {
    return {L::min(), T(L::min() + 1), T(-1), T(0), T(1), T(L::max() - 1),
            L::max()};
  } else {
    return {T(0), T(1), T(L::max() / 2), T(L::max() - 1), L::max()};
  }
}

/// One document per packed type, its root an array of edge_values<T>().
inline std::vector<xdm::DocumentPtr> edge_value_documents() {
  std::vector<xdm::DocumentPtr> docs;
  auto add = [&](auto type) {
    using T = typename decltype(type)::type;
    docs.push_back(xdm::make_document(
        xdm::make_array<T>(xdm::QName("a"), edge_values<T>())));
  };
  add(std::type_identity<std::int8_t>{});
  add(std::type_identity<std::uint8_t>{});
  add(std::type_identity<std::int16_t>{});
  add(std::type_identity<std::uint16_t>{});
  add(std::type_identity<std::int32_t>{});
  add(std::type_identity<std::uint32_t>{});
  add(std::type_identity<std::int64_t>{});
  add(std::type_identity<std::uint64_t>{});
  add(std::type_identity<float>{});
  add(std::type_identity<double>{});
  return docs;
}

/// A tree with every node shape and the writer's harder cases: prefixed
/// and default namespaces, typed and escaped attributes, leaves of several
/// types, a custom item name, an empty array, mixed content.
inline xdm::DocumentPtr mixed_document() {
  using namespace bxsoap::xdm;
  auto root = make_element(QName("urn:app", "data", "app"));
  root->declare_namespace("app", "urn:app");
  root->add_attribute(QName("id"), std::int32_t{17});
  root->add_attribute(QName("w"), 2.5);
  root->add_attribute(QName("note"), std::string("a<b & \"c\"\n"));
  root->add_child(make_leaf<double>(QName("urn:app", "temp", "app"), 287.5));
  root->add_child(make_leaf<std::string>(QName("s"), std::string(" x <&> y ")));
  root->add_child(make_leaf<bool>(QName("ok"), true));
  root->add_child(make_leaf<float>(QName("f"), -0.0f));
  auto idx = make_array<std::int16_t>(QName("urn:app", "idx", "app"),
                                      {9, -8, 7});
  idx->set_item_name("v");
  root->add_child(std::move(idx));
  root->add_child(make_array<double>(QName("empty"), {}));
  auto& meta = root->add_element(QName("meta"));
  meta.add_text("free text ");
  meta.add_child(std::make_unique<CommentNode>(" note "));
  meta.add_child(std::make_unique<PINode>("app", "x=1"));
  root->add_child(make_array<std::uint64_t>(
      QName("urn:other", "big"), {0, std::numeric_limits<std::uint64_t>::max()}));
  return make_document(std::move(root));
}

}  // namespace bxsoap::xmltest
