#include "xml/parser.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "xdm/dump.hpp"

namespace bxsoap::xml {
namespace {

using namespace bxsoap::xdm;

const Element& root_of(const Document& d) {
  return static_cast<const Element&>(d.root());
}

TEST(XmlParser, MinimalDocument) {
  auto doc = parse_xml("<r/>");
  EXPECT_EQ(root_of(*doc).name().local, "r");
  EXPECT_EQ(root_of(*doc).child_count(), 0u);
}

TEST(XmlParser, NestedElementsAndText) {
  auto doc = parse_xml("<r><a>x</a><b/></r>");
  const Element& r = root_of(*doc);
  ASSERT_EQ(r.child_count(), 2u);
  const auto* a = static_cast<const Element*>(r.find_child("a"));
  EXPECT_EQ(a->string_value(), "x");
}

TEST(XmlParser, AttributesBothQuoteStyles) {
  auto doc = parse_xml("<r a=\"1\" b='2'/>");
  const Element& r = root_of(*doc);
  EXPECT_EQ(r.find_attribute("a")->text(), "1");
  EXPECT_EQ(r.find_attribute("b")->text(), "2");
}

TEST(XmlParser, EntityReferencesInTextAndAttributes) {
  auto doc = parse_xml("<r k=\"&lt;&amp;&quot;&apos;\">&gt;&#65;&#x42;</r>");
  const Element& r = root_of(*doc);
  EXPECT_EQ(r.find_attribute("k")->text(), "<&\"'");
  EXPECT_EQ(r.string_value(), ">AB");
}

TEST(XmlParser, NumericReferenceUtf8) {
  auto doc = parse_xml("<r>&#x3B1;&#946;</r>");  // alpha beta
  EXPECT_EQ(root_of(*doc).string_value(), "\xCE\xB1\xCE\xB2");
}

TEST(XmlParser, CdataIsPlainText) {
  auto doc = parse_xml("<r><![CDATA[a<b&c]]></r>");
  EXPECT_EQ(root_of(*doc).string_value(), "a<b&c");
}

TEST(XmlParser, CdataMergesWithSurroundingText) {
  auto doc = parse_xml("<r>x<![CDATA[<]]>y</r>");
  const Element& r = root_of(*doc);
  ASSERT_EQ(r.child_count(), 1u) << "single merged text node";
  EXPECT_EQ(r.string_value(), "x<y");
}

TEST(XmlParser, CommentsAndPis) {
  auto doc = parse_xml("<!--top--><?pi data?><r><!--in--><?p d?></r>");
  ASSERT_EQ(doc->children().size(), 3u);
  EXPECT_EQ(doc->children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(doc->children()[1]->kind(), NodeKind::kPI);
  const Element& r = root_of(*doc);
  ASSERT_EQ(r.child_count(), 2u);
  EXPECT_EQ(r.children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(static_cast<const PINode&>(*r.children()[1]).target(), "p");
}

TEST(XmlParser, XmlDeclarationSkipped) {
  auto doc = parse_xml("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r/>");
  EXPECT_EQ(root_of(*doc).name().local, "r");
}

TEST(XmlParser, NamespaceResolution) {
  auto doc = parse_xml(
      "<x:r xmlns:x=\"urn:a\" xmlns=\"urn:d\">"
      "<x:c/><plain/><y:c xmlns:y=\"urn:b\"/></x:r>");
  const Element& r = root_of(*doc);
  EXPECT_EQ(r.name().namespace_uri, "urn:a");
  EXPECT_EQ(r.name().prefix, "x");
  auto kids = r.child_elements();
  ASSERT_EQ(kids.size(), 3u);
  EXPECT_EQ(kids[0]->name().namespace_uri, "urn:a");
  EXPECT_EQ(kids[1]->name().namespace_uri, "urn:d")
      << "unprefixed element takes the default namespace";
  EXPECT_EQ(kids[2]->name().namespace_uri, "urn:b");
}

TEST(XmlParser, DefaultNamespaceUndeclaration) {
  auto doc = parse_xml("<r xmlns=\"urn:d\"><c xmlns=\"\"/></r>");
  auto kids = root_of(*doc).child_elements();
  ASSERT_EQ(kids.size(), 1u);
  EXPECT_EQ(kids[0]->name().namespace_uri, "");
}

TEST(XmlParser, UnprefixedAttributeHasNoNamespace) {
  auto doc = parse_xml("<r xmlns=\"urn:d\" a=\"1\"/>");
  const Attribute* a = root_of(*doc).find_attribute("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->name.namespace_uri, "");
}

TEST(XmlParser, PrefixedAttributeResolves) {
  auto doc = parse_xml("<r xmlns:p=\"urn:p\" p:a=\"1\"/>");
  const Attribute* a = root_of(*doc).find_attribute(QName("urn:p", "a"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->text(), "1");
}

TEST(XmlParser, NamespaceDeclarationsRecordedOnElement) {
  auto doc = parse_xml("<r xmlns:p=\"urn:p\" xmlns=\"urn:d\"/>");
  const auto& ns = root_of(*doc).namespaces();
  ASSERT_EQ(ns.size(), 2u);
  EXPECT_EQ(ns[0].prefix, "p");
  EXPECT_EQ(ns[1].prefix, "");
}

TEST(XmlParser, XmlPrefixIsPredeclared) {
  auto doc = parse_xml("<r xml:lang=\"en\"/>");
  const Attribute* a = root_of(*doc).find_attribute(
      QName("http://www.w3.org/XML/1998/namespace", "lang"));
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->text(), "en");
}

TEST(XmlParser, IgnoreWhitespaceOption) {
  ParseOptions opt;
  opt.ignore_whitespace = true;
  auto doc = parse_xml("<r>\n  <a/>\n  <b/>\n</r>", opt);
  EXPECT_EQ(root_of(*doc).child_count(), 2u);

  auto strict = parse_xml("<r>\n  <a/>\n  <b/>\n</r>");
  EXPECT_EQ(root_of(*strict).child_count(), 5u) << "whitespace kept by default";
}

TEST(XmlParser, WhitespaceInsideTextIsNeverDropped) {
  ParseOptions opt;
  opt.ignore_whitespace = true;
  auto doc = parse_xml("<r> a </r>", opt);
  EXPECT_EQ(root_of(*doc).string_value(), " a ");
}

// ---- error cases ------------------------------------------------------------

TEST(XmlParserErrors, MismatchedTags) {
  EXPECT_THROW(parse_xml("<a></b>"), ParseError);
}

TEST(XmlParserErrors, UnterminatedElement) {
  EXPECT_THROW(parse_xml("<a><b></b>"), ParseError);
}

TEST(XmlParserErrors, MultipleRoots) {
  EXPECT_THROW(parse_xml("<a/><b/>"), ParseError);
}

TEST(XmlParserErrors, TextOutsideRoot) {
  EXPECT_THROW(parse_xml("x<a/>"), ParseError);
  EXPECT_THROW(parse_xml("<a/>x"), ParseError);
  EXPECT_NO_THROW(parse_xml(" <a/> \n"));
}

TEST(XmlParserErrors, EmptyInput) {
  EXPECT_THROW(parse_xml(""), ParseError);
  EXPECT_THROW(parse_xml("   "), ParseError);
}

TEST(XmlParserErrors, DoctypeRejected) {
  EXPECT_THROW(parse_xml("<!DOCTYPE html><r/>"), ParseError);
}

TEST(XmlParserErrors, UnknownEntity) {
  EXPECT_THROW(parse_xml("<r>&nbsp;</r>"), ParseError);
}

TEST(XmlParserErrors, UnquotedAttribute) {
  EXPECT_THROW(parse_xml("<r a=1/>"), ParseError);
}

TEST(XmlParserErrors, DuplicateAttribute) {
  EXPECT_THROW(parse_xml("<r a=\"1\" a=\"2\"/>"), ParseError);
}

TEST(XmlParserErrors, UnboundPrefix) {
  EXPECT_THROW(parse_xml("<p:r/>"), ParseError);
}

TEST(XmlParserErrors, LtInAttributeValue) {
  EXPECT_THROW(parse_xml("<r a=\"<\"/>"), ParseError);
}

TEST(XmlParserErrors, DoubleHyphenInComment) {
  EXPECT_THROW(parse_xml("<!--a--b--><r/>"), ParseError);
}

TEST(XmlParserErrors, BadCharacterReference) {
  EXPECT_THROW(parse_xml("<r>&#xZZ;</r>"), ParseError);
  EXPECT_THROW(parse_xml("<r>&#;</r>"), ParseError);
  EXPECT_THROW(parse_xml("<r>&#x110000;</r>"), ParseError);
}

TEST(XmlParserErrors, ErrorCarriesLineAndColumn) {
  try {
    parse_xml("<a>\n<b>\n</c>\n</a>");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 3u);
    EXPECT_NE(std::string(e.what()).find("xml:3:"), std::string::npos);
  }
}

TEST(XmlParserErrors, OpenAttributeValueAtEndOfExactSizeBuffer) {
  // The input ends inside an attribute value. Fed as an exact-size heap
  // buffer (how XmlEncoding gets it off the wire), there is no terminator
  // to read: the parser must report the open value without peeking past
  // the end, which AddressSanitizer would catch.
  for (const std::string_view doc : {"<a b=\"x", "<a b='", "<a b=\"&amp;"}) {
    const std::vector<char> buf(doc.begin(), doc.end());
    const std::string_view text(buf.data(), buf.size());
    EXPECT_THROW(parse_xml(text), ParseError) << doc;
    EXPECT_THROW(parse_typed_xml(text), ParseError) << doc;
  }
}

TEST(XmlParserErrors, MissingAttributeWhitespace) {
  EXPECT_THROW(parse_xml("<r a=\"1\"b=\"2\"/>"), ParseError);
}

}  // namespace
}  // namespace bxsoap::xml
