#include "xml/retype.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "support/typed_xml.hpp"
#include "xdm/equal.hpp"
#include "xml/ns_constants.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace bxsoap::xml {
namespace {

using namespace bxsoap::xdm;

/// The full transcode loop the paper requires: typed tree -> text ->
/// untyped parse -> retype must restore the original tree. The one-pass
/// decoder must build the same tree from the same text.
DocumentPtr text_round_trip(const Document& doc) {
  const std::string text = write_xml(doc);
  EXPECT_TRUE(xmltest::typed_parse_matches_oracle(text));
  auto parsed = parse_xml(text);
  return retype(*parsed);
}

/// `text` is well-formed XML whose annotations retype rejects; the one-pass
/// decoder must reject it too.
void expect_rejected(const std::string& text) {
  auto parsed = parse_xml(text);
  EXPECT_THROW(retype(*parsed), DecodeError) << text;
  EXPECT_THROW(parse_typed_xml(text), DecodeError) << text;
}

TEST(Retype, LeafDouble) {
  auto doc = make_document(make_leaf<double>(QName("t"), 287.4375));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, AllLeafTypes) {
  auto root = make_element(QName("all"));
  root->add_child(make_leaf<std::int8_t>(QName("i8"), -8));
  root->add_child(make_leaf<std::uint8_t>(QName("u8"), 200));
  root->add_child(make_leaf<std::int16_t>(QName("i16"), -3000));
  root->add_child(make_leaf<std::uint16_t>(QName("u16"), 60000));
  root->add_child(make_leaf<std::int32_t>(QName("i32"), -100000));
  root->add_child(make_leaf<std::uint32_t>(QName("u32"), 4000000000u));
  root->add_child(
      make_leaf<std::int64_t>(QName("i64"), -5000000000000000000LL));
  root->add_child(
      make_leaf<std::uint64_t>(QName("u64"), 18446744073709551615ULL));
  root->add_child(make_leaf<float>(QName("f32"), 1.5f));
  root->add_child(make_leaf<double>(QName("f64"), -2.5e-300));
  root->add_child(make_leaf<bool>(QName("b"), true));
  root->add_child(make_leaf<std::string>(QName("s"), std::string("x y")));
  auto doc = make_document(std::move(root));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, ArraysOfSeveralTypes) {
  auto root = make_element(QName("arrays"));
  root->add_child(make_array<std::int32_t>(QName("ai"), {1, -2, 3}));
  root->add_child(make_array<double>(QName("ad"), {0.5, -1.25, 3e100}));
  root->add_child(make_array<float>(QName("af"), {1.5f}));
  root->add_child(make_array<std::uint8_t>(QName("au"), {0, 255, 127}));
  auto doc = make_document(std::move(root));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, EmptyArray) {
  auto doc = make_document(make_array<double>(QName("a"), {}));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, CustomItemNamePreserved) {
  auto arr = make_array<std::int32_t>(QName("a"), {1, 2});
  arr->set_item_name("v");
  auto doc = make_document(std::move(arr));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
  const auto& a = static_cast<const ArrayElementBase&>(back->root());
  EXPECT_EQ(a.item_name(), "v");
}

TEST(Retype, TypedAttributesRestored) {
  auto e = make_element(QName("e"));
  e->add_attribute(QName("id"), std::int32_t{17});
  e->add_attribute(QName("w"), 2.5);
  e->add_attribute(QName("s"), std::string("text"));
  auto doc = make_document(std::move(e));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, MixedTreeWithNamespaces) {
  auto root = make_element(QName("urn:app", "data", "app"));
  root->declare_namespace("app", "urn:app");
  root->add_attribute(QName("run"), std::string("42"));
  auto& meta = root->add_element(QName("urn:app", "meta", "app"));
  meta.add_text("free text ");
  meta.add_child(std::make_unique<CommentNode>("note"));
  root->add_child(make_leaf<double>(QName("urn:app", "temp", "app"), 287.5));
  root->add_child(
      make_array<std::int32_t>(QName("urn:app", "idx", "app"), {9, 8, 7}));
  auto doc = make_document(std::move(root));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, FullPrecisionDoubles) {
  // The paper: floats "are converted to full precision"; shortest-round-trip
  // formatting must restore bit-identical values.
  SplitMix64 rng(1234);
  auto arr = std::make_unique<ArrayElement<double>>(QName("a"));
  for (int i = 0; i < 500; ++i) {
    arr->values().push_back(rng.next_double(-1e300, 1e300));
  }
  auto doc = make_document(std::move(arr));
  auto back = text_round_trip(*doc);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Retype, UnannotatedDocumentPassesThrough) {
  auto parsed = parse_xml("<r><c a=\"1\">text</c></r>");
  auto typed = retype(*parsed);
  EXPECT_TRUE(deep_equal(*parsed, *typed));
  EXPECT_EQ(typed->root().kind(), NodeKind::kElement);
}

TEST(Retype, IsIdempotent) {
  auto doc = make_document(make_leaf<double>(QName("t"), 1.5));
  auto once = text_round_trip(*doc);
  // Retyping an already-typed tree must be a no-op.
  auto twice = retype(*once);
  EXPECT_TRUE(deep_equal(*once, *twice));
}

TEST(Retype, ReservedNamespaceResidueRemoved) {
  auto doc = make_document(make_leaf<double>(QName("t"), 1.5));
  auto back = text_round_trip(*doc);
  const ElementBase& root = back->root();
  for (const auto& d : root.namespaces()) {
    EXPECT_NE(d.uri, kXsiUri);
    EXPECT_NE(d.uri, kXsdUri);
    EXPECT_NE(d.uri, kBxUri);
  }
  EXPECT_TRUE(root.attributes().empty());
}

TEST(RetypeErrors, UnknownXsdType) {
  expect_rejected(
      "<t xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "xsi:type=\"xsd:decimal\">1</t>");
}

TEST(RetypeErrors, TypePrefixNotXsd) {
  expect_rejected(
      "<t xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:other=\"urn:other\" xsi:type=\"other:double\">1</t>");
}

TEST(RetypeErrors, LeafWithElementChildren) {
  expect_rejected(
      "<t xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "xsi:type=\"xsd:double\"><child/></t>");
}

TEST(RetypeErrors, BadLexicalValue) {
  expect_rejected(
      "<t xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "xsi:type=\"xsd:int\">not-a-number</t>");
}

TEST(RetypeErrors, ArrayWithStrayText) {
  expect_rejected(
      "<a xmlns:bx=\"urn:bxsa:annotations\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "bx:arrayType=\"xsd:int\"><d>1</d>junk</a>");
}

TEST(RetypeErrors, AnnotationForMissingAttribute) {
  expect_rejected(
      "<e xmlns:bx=\"urn:bxsa:annotations\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "bx:at-id=\"xsd:int\"/>");
}

TEST(RetypeErrors, ArrayItemsThatWouldBeLost) {
  // The typed array keeps only values and one item name, so items it could
  // not write back byte for byte are rejected rather than dropped.
  const std::string decls =
      "xmlns:bx=\"urn:bxsa:annotations\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" ";
  // A second item name, with an attribute.
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\"><d>1</d><e k=\"v\">2</e></a>");
  // A second item name alone.
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\"><d>1</d><e>2</e></a>");
  // An attribute or a namespace declaration on an item.
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\"><d>1</d><d k=\"v\">2</d></a>");
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\"><d xmlns:q=\"urn:q\">1</d></a>");
  // A prefixed item, and items not named by bx:itemName.
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\"><bx:d>1</bx:d></a>");
  expect_rejected("<a " + decls +
                  "bx:arrayType=\"xsd:int\" bx:itemName=\"v\"><d>1</d></a>");
}

}  // namespace
}  // namespace bxsoap::xml
