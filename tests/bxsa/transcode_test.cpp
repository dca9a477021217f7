#include "bxsa/transcode.hpp"

#include <gtest/gtest.h>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "common/prng.hpp"
#include "support/typed_xml.hpp"
#include "xdm/equal.hpp"
#include "xml/parser.hpp"

namespace bxsoap::bxsa {
namespace {

using namespace bxsoap::xdm;

DocumentPtr lead_document(int n) {
  SplitMix64 rng(5);
  std::vector<std::int32_t> idx(n);
  std::vector<double> val(n);
  for (int i = 0; i < n; ++i) {
    idx[i] = i;
    val[i] = rng.next_double(200, 320);
  }
  auto root = make_element(QName("urn:lead", "data", "lead"));
  root->declare_namespace("lead", "urn:lead");
  root->add_child(make_array<std::int32_t>(QName("urn:lead", "index", "lead"),
                                           std::move(idx)));
  root->add_child(make_array<double>(QName("urn:lead", "values", "lead"),
                                     std::move(val)));
  return make_document(std::move(root));
}

TEST(Transcode, BxsaToXmlToBxsaPreservesModel) {
  auto doc = lead_document(100);
  const auto bxsa1 = encode(*doc);
  const std::string xml = bxsa_to_xml(bxsa1);
  const auto bxsa2 = xml_to_bxsa(xml);
  const NodePtr back = decode(bxsa2);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Transcode, BxsaToXmlToBxsaBytesAreStable) {
  // After one lap the binary form must be a fixed point: converting to XML
  // and back reproduces the identical byte sequence ("converted to textual
  // XML, and then back to binary XML without change").
  auto doc = lead_document(32);
  const auto bxsa1 = encode(*doc);
  const auto bxsa2 = xml_to_bxsa(bxsa_to_xml(bxsa1));
  const auto bxsa3 = xml_to_bxsa(bxsa_to_xml(bxsa2));
  EXPECT_EQ(bxsa2, bxsa3);
}

TEST(Transcode, XmlToBxsaToXmlIsStableAfterOneLap) {
  // Textual direction: the first lap may normalize float digits (full
  // precision rule); after that the text must be a fixed point.
  const std::string original =
      "<data><a xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "xsi:type=\"xsd:double\">0.10000000000000001</a>"
      "<plain attr=\"v\">text</plain></data>";
  const std::string once = bxsa_to_xml(xml_to_bxsa(original));
  const std::string twice = bxsa_to_xml(xml_to_bxsa(once));
  EXPECT_EQ(once, twice);
  // And the double survives as a VALUE even though its digits changed.
  EXPECT_NE(once.find("0.1<"), std::string::npos);
}

TEST(Transcode, UntypedXmlSurvives) {
  const std::string xml =
      "<r a=\"1\"><c>text &amp; more</c><!--note--><?pi data?></r>";
  auto direct = xml::parse_xml(xml);
  const auto bxsa = xml_to_bxsa(xml);
  const NodePtr back = decode(bxsa);
  EXPECT_TRUE(deep_equal(*direct, *back)) << first_difference(*direct, *back);
}

TEST(Transcode, MixedContentAndCommentsSurviveBothDirections) {
  auto root = make_element(QName("r"));
  root->add_text("a ");
  root->add_child(std::make_unique<CommentNode>(" c "));
  auto& e = root->add_element(QName("e"));
  e.add_text("inner");
  root->add_child(std::make_unique<PINode>("app", "x=1"));
  root->add_child(make_leaf<std::string>(QName("s"), std::string("<&>")));
  auto doc = make_document(std::move(root));

  const auto bxsa2 = xml_to_bxsa(bxsa_to_xml(encode(*doc)));
  const NodePtr back = decode(bxsa2);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Transcode, BigEndianBxsaTranscodesToo) {
  auto doc = lead_document(16);
  EncodeOptions opt;
  opt.order = ByteOrder::kBig;
  const auto bxsa_be = encode(*doc, opt);
  const std::string xml = bxsa_to_xml(bxsa_be);
  const auto bxsa_le = xml_to_bxsa(xml, ByteOrder::kLittle);
  const NodePtr back = decode(bxsa_le);
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
}

TEST(Transcode, OnePassDecodeMatchesTheRetypeOracle) {
  // xml_to_bxsa decodes with xml::parse_typed_xml; on every document above
  // it must build what retype(*parse_xml(x)) builds.
  auto mixed = make_element(QName("r"));
  mixed->add_text("a ");
  mixed->add_child(std::make_unique<CommentNode>(" c "));
  mixed->add_child(std::make_unique<PINode>("app", "x=1"));
  mixed->add_child(make_leaf<std::string>(QName("s"), std::string("<&>")));
  const std::string texts[] = {
      bxsa_to_xml(encode(*lead_document(100))),
      bxsa_to_xml(encode(*make_document(std::move(mixed)))),
      "<data><a xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
      "xsi:type=\"xsd:double\">0.10000000000000001</a>"
      "<plain attr=\"v\">text</plain></data>",
      "<r a=\"1\"><c>text &amp; more</c><!--note--><?pi data?></r>",
  };
  for (const auto& text : texts) {
    EXPECT_TRUE(xmltest::typed_parse_matches_oracle(text)) << text;
  }
}

}  // namespace
}  // namespace bxsoap::bxsa
