// parse_typed_xml() against its oracle, retype(*parse_xml(x)): equal trees
// or both reject, over edge values of every packed type and over the
// markup the one-pass decoder must tolerate or refuse inside typed values.
#include <gtest/gtest.h>

#include "support/typed_xml.hpp"
#include "xdm/equal.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace bxsoap::xml {
namespace {

using namespace bxsoap::xdm;
using xmltest::typed_parse_matches_oracle;
using xmltest::typed_tree_difference;

constexpr std::string_view kDecls =
    " xmlns:bx=\"urn:bxsa:annotations\""
    " xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\""
    " xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\"";

std::string array_doc(std::string_view type, std::string_view items,
                      std::string_view attrs = "") {
  return "<a" + std::string(kDecls) + " bx:arrayType=\"xsd:" +
         std::string(type) + "\"" + std::string(attrs) + ">" +
         std::string(items) + "</a>";
}

std::string leaf_doc(std::string_view type, std::string_view content) {
  return "<t" + std::string(kDecls) + " xsi:type=\"xsd:" + std::string(type) +
         "\">" + std::string(content) + "</t>";
}

TEST(TypedParse, EdgeValuesOfEveryPackedTypeRoundTrip) {
  for (const auto& doc : xmltest::edge_value_documents()) {
    const std::string text = write_xml(*doc);
    EXPECT_TRUE(typed_parse_matches_oracle(text));
    const DocumentPtr typed = parse_typed_xml(text);
    EXPECT_EQ(typed_tree_difference(*doc, *typed), "") << text;
  }
}

TEST(TypedParse, MixedDocumentInEveryWriterForm) {
  const DocumentPtr doc = xmltest::mixed_document();
  const DocumentPtr back = parse_typed_xml(write_xml(*doc));
  EXPECT_TRUE(deep_equal(*doc, *back)) << first_difference(*doc, *back);
  WriteOptions indented;
  indented.indent = 2;
  WriteOptions plain;
  plain.emit_type_info = false;
  plain.xml_decl = true;
  for (const WriteOptions& opt : {WriteOptions{}, indented, plain}) {
    const std::string text = write_xml(*doc, opt);
    EXPECT_TRUE(typed_parse_matches_oracle(text));
    ParseOptions ignore_ws;
    ignore_ws.ignore_whitespace = true;
    EXPECT_TRUE(typed_parse_matches_oracle(text, ignore_ws));
  }
}

TEST(TypedParse, MarkupBetweenAndInsideArrayItems) {
  struct Case {
    std::string_view items;
    bool accepted;
  };
  const Case cases[] = {
      {"<d>1</d> \n\t<d>2</d>\r\n", true},
      {"<!--c--><d>1</d><!-- c --><d>2</d><?pi x?>", true},
      {"<d>1</d><![CDATA[ \n ]]><d>2</d><![CDATA[]]>", true},
      {"<d>1</d>&#32;&#x9;&#10;<d>2</d>", true},
      {"<d> 1 </d><d>\n2\n</d>", true},
      {"<d>&#49;</d><d>&#x32;3</d><d>&#x35;</d>", true},
      {"<d><![CDATA[4]]></d><d>5<![CDATA[6]]></d>", true},
      {"<d>7<!--c-->8</d><d>9<?p?>0</d>", true},
      {"<d >1</d><d>2</d ><d\n>3</d\t>", true},
      {"<d>1</d><dd>2</dd>", false},
      {"<d/>", false},
      {"<d></d>", false},
      {"<d>1</d>x", false},
      {"<d>1</d>&#65;", false},
      {"<d>1</d><![CDATA[x]]>", false},
      {"<d>1 2</d>", false},
      {"<d>1<!--a--> <!--b-->2</d>", false},
      {"<d>1&amp;</d>", false},
      {"<d>1</d><d>2</e>", false},
      {"<d>1</d><d>2", false},
      {"<d>1</d><!x>", false},
      {"<d>1</d><d>2</d><!--", false},
  };
  for (const auto& c : cases) {
    for (std::string_view type : {"int", "double", "unsignedByte"}) {
      const std::string text = array_doc(type, c.items);
      EXPECT_EQ(typed_parse_matches_oracle(text), c.accepted) << text;
      ParseOptions ignore_ws;
      ignore_ws.ignore_whitespace = true;
      typed_parse_matches_oracle(text, ignore_ws);
    }
  }
}

TEST(TypedParse, LeafTextWithReferencesCdataAndComments) {
  struct Case {
    std::string_view type;
    std::string_view content;
    bool accepted;
  };
  const Case cases[] = {
      {"double", "2<!--c-->.5", true},
      {"double", " 2.5 ", true},
      {"string", " a &amp; <![CDATA[<b>]]> c ", true},
      {"string", "", true},
      {"string", " <!--x--> ", true},
      {"int", "&#52;2", true},
      {"boolean", " true ", true},
      {"boolean", "yes", false},
      {"int", "4<x/>", false},
      {"int", "", false},
      {"byte", "128", false},
      {"decimal", "1", false},
  };
  for (const auto& c : cases) {
    const std::string text = leaf_doc(c.type, c.content);
    EXPECT_EQ(typed_parse_matches_oracle(text), c.accepted) << text;
    ParseOptions ignore_ws;
    ignore_ws.ignore_whitespace = true;
    typed_parse_matches_oracle(text, ignore_ws);
  }
  EXPECT_TRUE(typed_parse_matches_oracle(
      "<t" + std::string(kDecls) + " xsi:type=\"xsd:string\"/>"));
}

TEST(TypedParse, RejectsWhatTheOracleRejects) {
  const std::string rejected[] = {
      // Items whose name, prefix or markup the typed array cannot keep.
      array_doc("int", "<d>1</d><e k=\"v\">2</e>"),
      array_doc("int", "<d>1</d><e>2</e>"),
      array_doc("int", "<d k=\"v\">1</d>"),
      array_doc("int", "<d>1</d><d k=\"v\">2</d>"),
      array_doc("int", "<d xmlns:q=\"urn:q\">1</d>"),
      array_doc("int", "<bx:d>1</bx:d>"),
      array_doc("int", "<q:d>1</q:d>"),
      array_doc("int", "<d>1</d>", " bx:itemName=\"v\""),
      array_doc("int", "<p:d>1</p:d>", " xmlns:p=\"urn:p\" bx:itemName=\"p:d\""),
      array_doc("int", "<>1</>", " bx:itemName=\"\""),
      array_doc("int", "<d><x>1</x></d>"),
      // Types without a packed form, and bad annotations.
      array_doc("boolean", "<d>true</d>"),
      array_doc("string", "<d>x</d>"),
      array_doc("decimal", "<d>1</d>"),
      "<a xmlns:bx=\"urn:bxsa:annotations\" bx:arrayType=\"xsd:int\"/>",
      "<a xmlns:bx=\"urn:bxsa:annotations\" bx:arrayType=\"int\"/>",
      "<e" + std::string(kDecls) + " bx:at-id=\"xsd:int\"/>",
      "<e" + std::string(kDecls) + " id=\"x\" bx:at-id=\"xsd:int\"/>",
  };
  for (const auto& text : rejected) {
    EXPECT_FALSE(typed_parse_matches_oracle(text)) << text;
  }
  // The accepted neighbours of those cases.
  EXPECT_TRUE(typed_parse_matches_oracle(
      array_doc("int", "<v>1</v><v>2</v>", " bx:itemName=\"v\"")));
  EXPECT_TRUE(typed_parse_matches_oracle(array_doc("int", "", " bx:itemName=\"p:d\"")));
  EXPECT_TRUE(typed_parse_matches_oracle(
      "<e" + std::string(kDecls) + " id=\"7\" bx:at-id=\"xsd:int\"/>"));
}

TEST(TypedParse, ItemsCountAgainstTheDepthLimit) {
  const std::string text = array_doc("int", "<d>1</d><d>2</d><d>3</d>");
  ParseOptions tight;
  tight.max_depth = 1;
  EXPECT_FALSE(typed_parse_matches_oracle(text, tight));
  tight.max_depth = 2;
  EXPECT_TRUE(typed_parse_matches_oracle(text, tight));
}

TEST(TypedParse, UnannotatedAndNestedDocuments) {
  const std::string docs[] = {
      "<r><c a=\"1\">text</c></r>",
      "<?xml version=\"1.0\"?><!--top--><r xmlns=\"urn:d\"><c/>x<?p d?></r>",
      "<r" + std::string(kDecls) +
          "><w><t xsi:type=\"xsd:long\">-5</t><a bx:arrayType=\"xsd:float\">"
          "<d>1.5</d></a></w><w xmlns=\"urn:in\"><a bx:arrayType=\"xsd:short\""
          "><d>2</d></a></w></r>",
      "<r><t xmlns:x=\"http://www.w3.org/2001/XMLSchema\" "
      "xmlns:i=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "i:type=\"x:int\">3</t></r>",
  };
  for (const auto& text : docs) {
    EXPECT_TRUE(typed_parse_matches_oracle(text)) << text;
  }
}

}  // namespace
}  // namespace bxsoap::xml
