#include "xml/writer.hpp"

#include <gtest/gtest.h>

#include "common/prng.hpp"
#include "support/typed_xml.hpp"
#include "xdm/node.hpp"
#include "xml/escape.hpp"

namespace bxsoap::xml {
namespace {

using namespace bxsoap::xdm;

WriteOptions plain() {
  WriteOptions o;
  o.emit_type_info = false;
  return o;
}

TEST(XmlWriter, EmptyElement) {
  Element e{QName("empty")};
  EXPECT_EQ(write_xml(e, plain()), "<empty/>");
}

TEST(XmlWriter, NestedElementsAndText) {
  auto root = make_element(QName("r"));
  auto& c = root->add_element(QName("c"));
  c.add_text("hi");
  EXPECT_EQ(write_xml(*root, plain()), "<r><c>hi</c></r>");
}

TEST(XmlWriter, TextIsEscaped) {
  auto root = make_element(QName("r"));
  root->add_text("a<b&c");
  EXPECT_EQ(write_xml(*root, plain()), "<r>a&lt;b&amp;c</r>");
}

TEST(XmlWriter, AttributesEscapedAndQuoted) {
  Element e{QName("e")};
  e.add_attribute(QName("k"), std::string("a\"b<c"));
  EXPECT_EQ(write_xml(e, plain()), "<e k=\"a&quot;b&lt;c\"/>");
}

TEST(XmlWriter, ExplicitNamespaceDeclarationsHonored) {
  auto root = make_element(QName("urn:x", "r", "x"));
  root->declare_namespace("x", "urn:x");
  EXPECT_EQ(write_xml(*root, plain()), "<x:r xmlns:x=\"urn:x\"/>");
}

TEST(XmlWriter, AutoDeclaresMissingPrefix) {
  Element e{QName("urn:x", "r", "x")};
  EXPECT_EQ(write_xml(e, plain()), "<x:r xmlns:x=\"urn:x\"/>");
}

TEST(XmlWriter, AutoDeclaresDefaultNamespaceForUnprefixedName) {
  Element e{QName("urn:x", "r")};
  EXPECT_EQ(write_xml(e, plain()), "<r xmlns=\"urn:x\"/>");
}

TEST(XmlWriter, ChildReusesParentDeclaration) {
  auto root = make_element(QName("urn:x", "r", "x"));
  root->declare_namespace("x", "urn:x");
  root->add_child(make_element(QName("urn:x", "c", "x")));
  EXPECT_EQ(write_xml(*root, plain()),
            "<x:r xmlns:x=\"urn:x\"><x:c/></x:r>");
}

TEST(XmlWriter, UnprefixedChildUnderDefaultNamespaceIsUndeclared) {
  auto root = make_element(QName("urn:x", "r"));
  root->add_child(make_element(QName("c")));  // no namespace!
  EXPECT_EQ(write_xml(*root, plain()),
            "<r xmlns=\"urn:x\"><c xmlns=\"\"/></r>");
}

TEST(XmlWriter, PrefixConflictGeneratesFreshPrefix) {
  auto root = make_element(QName("urn:a", "r", "p"));
  root->declare_namespace("p", "urn:a");
  // Child claims the same prefix for a different URI; writer must not emit
  // a lying binding.
  root->add_child(make_element(QName("urn:b", "c", "p")));
  const std::string s = write_xml(*root, plain());
  EXPECT_NE(s.find("xmlns:p=\"urn:a\""), std::string::npos);
  // The child must use some prefix bound to urn:b.
  EXPECT_NE(s.find("=\"urn:b\""), std::string::npos);
  EXPECT_EQ(s.find("<p:c"), std::string::npos);
}

TEST(XmlWriter, AttributeNeverUsesDefaultNamespace) {
  auto root = make_element(QName("urn:x", "r"));
  root->add_attribute(QName("urn:x", "k"), std::string("v"));
  const std::string s = write_xml(*root, plain());
  // Attribute must get an explicit prefix even though urn:x is the default.
  EXPECT_NE(s.find(":k=\"v\""), std::string::npos);
}

TEST(XmlWriter, LeafWithTypeInfo) {
  LeafElement<double> leaf{QName("t"), 2.5};
  const std::string s = write_xml(leaf);
  EXPECT_EQ(s,
            "<t xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
            "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
            "xsi:type=\"xsd:double\">2.5</t>");
}

TEST(XmlWriter, LeafWithoutTypeInfo) {
  LeafElement<std::int32_t> leaf{QName("n"), -5};
  EXPECT_EQ(write_xml(leaf, plain()), "<n>-5</n>");
}

TEST(XmlWriter, ArrayPlainFormMatchesPaperShape) {
  // Table 1's XML: one element per item with a short tag name.
  ArrayElement<std::int32_t> arr{QName("a"), {1, 2, 3}};
  EXPECT_EQ(write_xml(arr, plain()), "<a><d>1</d><d>2</d><d>3</d></a>");
}

TEST(XmlWriter, ArrayTypedFormCarriesAnnotations) {
  ArrayElement<double> arr{QName("a"), {0.5}};
  const std::string s = write_xml(arr);
  EXPECT_NE(s.find("arrayType=\"xsd:double\""), std::string::npos);
  EXPECT_NE(s.find("<d>0.5</d>"), std::string::npos);
}

TEST(XmlWriter, ArrayCustomItemName) {
  ArrayElement<std::int32_t> arr{QName("a"), {7}};
  arr.set_item_name("item");
  const std::string s = write_xml(arr);
  EXPECT_NE(s.find("itemName=\"item\""), std::string::npos);
  EXPECT_NE(s.find("<item>7</item>"), std::string::npos);
}

TEST(XmlWriter, TypedAttributeAnnotation) {
  Element e{QName("e")};
  e.add_attribute(QName("id"), std::int32_t{9});
  const std::string s = write_xml(e);
  EXPECT_NE(s.find("id=\"9\""), std::string::npos);
  EXPECT_NE(s.find(":at-id=\"xsd:int\""), std::string::npos);
}

TEST(XmlWriter, StringAttributeHasNoAnnotation) {
  Element e{QName("e")};
  e.add_attribute(QName("k"), std::string("v"));
  const std::string s = write_xml(e);
  EXPECT_EQ(s.find("at-"), std::string::npos);
}

TEST(XmlWriter, CommentAndPi) {
  auto doc = std::make_unique<Document>();
  doc->add_child(std::make_unique<CommentNode>(" hello "));
  doc->add_child(std::make_unique<PINode>("target", "data x"));
  doc->add_child(make_element(QName("r")));
  EXPECT_EQ(write_xml(*doc, plain()), "<!-- hello --><?target data x?><r/>");
}

TEST(XmlWriter, XmlDeclOption) {
  Element e{QName("r")};
  WriteOptions o = plain();
  o.xml_decl = true;
  EXPECT_EQ(write_xml(e, o),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?><r/>");
}

TEST(XmlWriter, PrettyPrintIndentsElementChildren) {
  auto root = make_element(QName("r"));
  root->add_element(QName("a"));
  root->add_element(QName("b"));
  WriteOptions o = plain();
  o.indent = 2;
  EXPECT_EQ(write_xml(*root, o), "<r>\n  <a/>\n  <b/>\n</r>");
}

TEST(XmlWriter, PrettyPrintKeepsMixedContentInline) {
  auto root = make_element(QName("r"));
  root->add_text("a");
  root->add_element(QName("b"));
  WriteOptions o = plain();
  o.indent = 2;
  EXPECT_EQ(write_xml(*root, o), "<r>a<b/></r>");
}

// ---- byte identity with the writer's earlier per-item path ----------------
//
// The goldens below are the writer's output before array items were
// formatted straight into the output (each item then went through a
// ScalarValue, a temporary string and the text escaper). The item loop and
// both output sinks must reproduce them byte for byte.

const char* const kEdgeValueGoldens[] = {
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:byte"><d>-128</d><d>-127</d><d>-1</d><d>0</d><d>1</d><d>126</d><d>127</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:unsignedByte"><d>0</d><d>1</d><d>127</d><d>254</d><d>255</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:short"><d>-32768</d><d>-32767</d><d>-1</d><d>0</d><d>1</d><d>32766</d><d>32767</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:unsignedShort"><d>0</d><d>1</d><d>32767</d><d>65534</d><d>65535</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:int"><d>-2147483648</d><d>-2147483647</d><d>-1</d><d>0</d><d>1</d><d>2147483646</d><d>2147483647</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:unsignedInt"><d>0</d><d>1</d><d>2147483647</d><d>4294967294</d><d>4294967295</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:long"><d>-9223372036854775808</d><d>-9223372036854775807</d><d>-1</d><d>0</d><d>1</d><d>9223372036854775806</d><d>9223372036854775807</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:unsignedLong"><d>0</d><d>1</d><d>9223372036854775807</d><d>18446744073709551614</d><d>18446744073709551615</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:float"><d>nan</d><d>-nan</d><d>inf</d><d>-inf</d><d>0</d><d>-0</d><d>1e-45</d><d>-1e-45</d><d>1.1754944e-38</d><d>3.4028235e+38</d><d>-3.4028235e+38</d><d>0.1</d><d>-1.5</d><d>1e-30</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:double"><d>nan</d><d>-nan</d><d>inf</d><d>-inf</d><d>0</d><d>-0</d><d>5e-324</d><d>-5e-324</d><d>2.2250738585072014e-308</d><d>1.7976931348623157e+308</d><d>-1.7976931348623157e+308</d><d>0.1</d><d>-1.5</d><d>1e-30</d></a>)xml",
};

const char* const kEraFloatGoldens[] = {
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:float"><d>nan</d><d>-nan</d><d>inf</d><d>-inf</d><d>0</d><d>-0</d><d>1.4012984643248171e-45</d><d>-1.4012984643248171e-45</d><d>1.1754943508222875e-38</d><d>3.4028234663852886e+38</d><d>-3.4028234663852886e+38</d><d>0.10000000149011612</d><d>-1.5</d><d>1.0000000031710769e-30</d></a>)xml",
    R"xml(<a xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" bx:arrayType="xsd:double"><d>nan</d><d>-nan</d><d>inf</d><d>-inf</d><d>0</d><d>-0</d><d>4.9406564584124654e-324</d><d>-4.9406564584124654e-324</d><d>2.2250738585072014e-308</d><d>1.7976931348623157e+308</d><d>-1.7976931348623157e+308</d><d>0.10000000000000001</d><d>-1.5</d><d>1.0000000000000001e-30</d></a>)xml",
};

const char* const kMixedGoldens[] = {
    R"xml(<app:data xmlns:app="urn:app" xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" id="17" bx:at-id="xsd:int" w="2.5" bx:at-w="xsd:double" note="a&lt;b &amp; &quot;c&quot;&#10;"><app:temp xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:double">287.5</app:temp><s xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:string"> x &lt;&amp;&gt; y </s><ok xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:boolean">true</ok><f xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:float">-0</f><app:idx bx:arrayType="xsd:short" bx:itemName="v"><v>9</v><v>-8</v><v>7</v></app:idx><empty bx:arrayType="xsd:double"></empty><meta>free text <!-- note --><?app x=1?></meta><big xmlns="urn:other" bx:arrayType="xsd:unsignedLong"><d>0</d><d>18446744073709551615</d></big></app:data>)xml",
    R"xml(<app:data xmlns:app="urn:app" xmlns:bx="urn:bxsa:annotations" xmlns:xsd="http://www.w3.org/2001/XMLSchema" id="17" bx:at-id="xsd:int" w="2.5" bx:at-w="xsd:double" note="a&lt;b &amp; &quot;c&quot;&#10;">
  <app:temp xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:double">287.5</app:temp>
  <s xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:string"> x &lt;&amp;&gt; y </s>
  <ok xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:boolean">true</ok>
  <f xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" xsi:type="xsd:float">-0</f>
  <app:idx bx:arrayType="xsd:short" bx:itemName="v">
    <v>9</v>
    <v>-8</v>
    <v>7</v>
  </app:idx>
  <empty bx:arrayType="xsd:double">
  </empty>
  <meta>free text <!-- note --><?app x=1?></meta>
  <big xmlns="urn:other" bx:arrayType="xsd:unsignedLong">
    <d>0</d>
    <d>18446744073709551615</d>
  </big>
</app:data>)xml",
    R"xml(<?xml version="1.0" encoding="UTF-8"?><app:data xmlns:app="urn:app" id="17" w="2.5" note="a&lt;b &amp; &quot;c&quot;&#10;"><app:temp>287.5</app:temp><s> x &lt;&amp;&gt; y </s><ok>true</ok><f>-0</f><app:idx><v>9</v><v>-8</v><v>7</v></app:idx><empty></empty><meta>free text <!-- note --><?app x=1?></meta><big xmlns="urn:other"><d>0</d><d>18446744073709551615</d></big></app:data>)xml",
};

std::string via_byte_writer(const Node& node, const WriteOptions& opt) {
  // Appends after bytes already in the buffer, as behind a frame header.
  ByteWriter w(std::vector<std::uint8_t>{'h', 'd', 'r'});
  write_xml(node, w, opt);
  const auto bytes = w.bytes();
  EXPECT_EQ(std::string(bytes.begin(), bytes.begin() + 3), "hdr");
  return std::string(bytes.begin() + 3, bytes.end());
}

TEST(XmlWriterBytes, EdgeValueArraysMatchGoldens) {
  const auto docs = xmltest::edge_value_documents();
  ASSERT_EQ(docs.size(), std::size(kEdgeValueGoldens));
  WriteOptions era;
  era.era_number_formatting = true;
  for (std::size_t i = 0; i < docs.size(); ++i) {
    EXPECT_EQ(write_xml(*docs[i]), kEdgeValueGoldens[i]);
    EXPECT_EQ(via_byte_writer(*docs[i], {}), kEdgeValueGoldens[i]);
  }
  // The era formatting branch (float and double documents).
  for (std::size_t i = 0; i < std::size(kEraFloatGoldens); ++i) {
    const Document& doc = *docs[docs.size() - 2 + i];
    EXPECT_EQ(write_xml(doc, era), kEraFloatGoldens[i]);
    EXPECT_EQ(via_byte_writer(doc, era), kEraFloatGoldens[i]);
  }
}

TEST(XmlWriterBytes, MixedDocumentMatchesGoldensInEveryForm) {
  const DocumentPtr doc = xmltest::mixed_document();
  WriteOptions indented;
  indented.indent = 2;
  WriteOptions plain_decl = plain();
  plain_decl.xml_decl = true;
  const WriteOptions forms[] = {WriteOptions{}, indented, plain_decl};
  for (std::size_t i = 0; i < std::size(forms); ++i) {
    EXPECT_EQ(write_xml(*doc, forms[i]), kMixedGoldens[i]);
    EXPECT_EQ(via_byte_writer(*doc, forms[i]), kMixedGoldens[i]);
  }
}

/// The items as the earlier writer formatted them: each item's ScalarValue
/// through append_scalar_text, then the text escaper.
std::string items_by_scalar_text(const ArrayElementBase& a) {
  std::string out;
  for (std::size_t i = 0; i < a.count(); ++i) {
    out += "<" + a.item_name() + ">";
    out += escape_text(scalar_text(a.item_scalar(i)));
    out += "</" + a.item_name() + ">";
  }
  return out;
}

TEST(XmlWriterBytes, RandomArraysMatchTheScalarTextFormula) {
  // Large enough that the ByteWriter sink crosses several of its chunks.
  SplitMix64 rng(2024);
  std::vector<NodePtr> arrays;
  std::vector<double> d(20000);
  for (double& v : d) v = rng.next_double(-1e300, 1e300);
  arrays.push_back(make_array<double>(QName("a"), d));
  std::vector<float> f(5000);
  for (float& v : f) v = static_cast<float>(rng.next_double(-1e30, 1e30));
  arrays.push_back(make_array<float>(QName("a"), f));
  std::vector<std::int64_t> l(5000);
  for (auto& v : l) v = static_cast<std::int64_t>(rng.next());
  arrays.push_back(make_array<std::int64_t>(QName("a"), l));
  std::vector<std::uint16_t> u(5000);
  for (auto& v : u) v = static_cast<std::uint16_t>(rng.next());
  auto named = make_array<std::uint16_t>(QName("a"), u);
  named->set_item_name("item");
  arrays.push_back(std::move(named));

  for (const auto& node : arrays) {
    const auto& a = static_cast<const ArrayElementBase&>(*node);
    const std::string text = write_xml(a);
    const std::string items = items_by_scalar_text(a);
    const std::size_t open_end = text.find('>') + 1;
    EXPECT_EQ(text.substr(open_end, items.size()), items);
    EXPECT_EQ(text.substr(open_end + items.size()), "</a>");
    EXPECT_EQ(via_byte_writer(a, {}), text);
  }
}

}  // namespace
}  // namespace bxsoap::xml
