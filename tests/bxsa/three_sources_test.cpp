// The paper's §5.1 claim, demonstrated end to end: "any XDM-based XML
// processing (e.g. XPath or XSLT) should be able to run with binary XML
// with minor modification". The SAME compiled path query runs over the
// same logical document arriving three ways — built in memory, parsed from
// textual XML, decoded from BXSA — and returns identical results.
#include <gtest/gtest.h>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "support/typed_xml.hpp"
#include "xdm/equal.hpp"
#include "xdm/path.hpp"
#include "xml/parser.hpp"
#include "xml/retype.hpp"
#include "xml/writer.hpp"

namespace bxsoap::bxsa {
namespace {

using namespace bxsoap::xdm;

DocumentPtr build_catalog() {
  auto root = make_element(QName("urn:obs", "observations", "o"));
  root->declare_namespace("o", "urn:obs");
  for (int station = 1; station <= 3; ++station) {
    auto& s = root->add_element(QName("urn:obs", "station", "o"));
    s.add_attribute(QName("id"), static_cast<std::int32_t>(station));
    s.add_child(make_leaf<double>(QName("urn:obs", "temp", "o"),
                                  280.0 + station));
    s.add_child(make_array<std::int32_t>(QName("urn:obs", "hours", "o"),
                                         {station, station * 2}));
  }
  return make_document(std::move(root));
}

class ThreeSources : public ::testing::Test {
 protected:
  void SetUp() override {
    in_memory_ = build_catalog();
    // Source 2: through textual XML.
    xml::WriteOptions opt;
    opt.emit_type_info = true;
    xml_text_ = xml::write_xml(*in_memory_, opt);
    from_xml_ = xml::retype(*xml::parse_xml(xml_text_));
    // Source 3: through BXSA.
    from_bxsa_holder_ = encode(*in_memory_);
    auto node = decode(from_bxsa_holder_);
    from_bxsa_ = DocumentPtr(static_cast<Document*>(node.release()));

    prefixes_["o"] = "urn:obs";
  }

  std::vector<const Node*> sources() const {
    return {in_memory_.get(), from_xml_.get(), from_bxsa_.get()};
  }

  std::string xml_text_;
  DocumentPtr in_memory_, from_xml_, from_bxsa_;
  std::vector<std::uint8_t> from_bxsa_holder_;
  PrefixMap prefixes_;
};

TEST_F(ThreeSources, OnePassXmlDecodeMatchesTheRetypeOracle) {
  EXPECT_TRUE(xmltest::typed_parse_matches_oracle(xml_text_));
}

TEST_F(ThreeSources, DocumentsAreDeepEqual) {
  EXPECT_TRUE(deep_equal(*in_memory_, *from_xml_))
      << first_difference(*in_memory_, *from_xml_);
  EXPECT_TRUE(deep_equal(*in_memory_, *from_bxsa_))
      << first_difference(*in_memory_, *from_bxsa_);
}

TEST_F(ThreeSources, SameQuerySameAnswers) {
  const Path q = Path::compile("//o:station[@id='2']/o:temp", prefixes_);
  for (const Node* src : sources()) {
    auto r = q.select(*src);
    ASSERT_EQ(r.size(), 1u);
    ASSERT_EQ(r[0]->kind(), NodeKind::kLeafElement);
    EXPECT_EQ(scalar_get<double>(
                  static_cast<const LeafElementBase*>(r[0])->scalar()),
              282.0);
  }
}

TEST_F(ThreeSources, PositionAndWildcardQueries) {
  for (const char* expr : {"/o:observations/o:station[3]",
                           "//o:station/*", "//o:hours"}) {
    const Path q = Path::compile(expr, prefixes_);
    const auto a = q.select(*in_memory_);
    const auto b = q.select(*from_xml_);
    const auto c = q.select(*from_bxsa_);
    EXPECT_EQ(a.size(), b.size()) << expr;
    EXPECT_EQ(a.size(), c.size()) << expr;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i]->name(), b[i]->name()) << expr;
      EXPECT_EQ(a[i]->name(), c[i]->name()) << expr;
    }
  }
}

TEST_F(ThreeSources, ValuePredicateOverTypedLeaves) {
  const Path q = Path::compile("//o:station[temp='283']", prefixes_);
  for (const Node* src : sources()) {
    auto r = q.select(*src);
    ASSERT_EQ(r.size(), 1u) << "typed leaf renders 283 identically";
    EXPECT_EQ(r[0]->find_attribute("id")->text(), "3");
  }
}

}  // namespace
}  // namespace bxsoap::bxsa
