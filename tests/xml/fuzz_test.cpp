// Robustness: the XML parser must never crash, hang, or read out of bounds
// on hostile input — every malformed document throws ParseError/DecodeError.
// Inputs are fed as exact-size heap buffers (as XmlEncoding receives them
// off the wire), so AddressSanitizer reports any read past the end; a
// std::string's terminator would hide it.
//
// The mutants also run the one-pass typed decoder against its oracle:
// parse_typed_xml(x) must equal retype(*parse_xml(x)) or both must reject.
#include <gtest/gtest.h>

#include <vector>

#include "common/prng.hpp"
#include "support/typed_xml.hpp"
#include "xml/parser.hpp"
#include "xml/retype.hpp"
#include "xml/writer.hpp"

namespace bxsoap::xml {
namespace {

const std::string kSeedDoc =
    "<r xmlns:x=\"urn:x\" a=\"1\" x:b=\"&lt;2&gt;\">"
    "<x:c xsi:type=\"xsd:double\" "
    "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
    "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\">2.5</x:c>"
    "<!--note--><?pi data?><d><![CDATA[raw<>&]]></d>text&#65;</r>";

/// Typed arrays and leaves with the markup the typed decoder tolerates
/// between and inside items.
const std::string kTypedSeedDoc =
    "<r xmlns:bx=\"urn:bxsa:annotations\" "
    "xmlns:xsd=\"http://www.w3.org/2001/XMLSchema\" "
    "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
    "k=\"3\" bx:at-k=\"xsd:int\">"
    "<a bx:arrayType=\"xsd:double\"><d>1.5</d> <d>-0</d><!--c--><d>&#50;"
    "</d><d><![CDATA[4]]></d></a>"
    "<b bx:arrayType=\"xsd:unsignedByte\" bx:itemName=\"v\"><v>7</v>"
    "<?p?><v>255</v></b>"
    "<t xsi:type=\"xsd:long\">-9</t><s xsi:type=\"xsd:string\"> x </s></r>";

/// An exact-size heap copy of `doc`: one byte past the end is outside the
/// allocation.
std::vector<char> exact_copy(const std::string& doc) {
  return std::vector<char>(doc.begin(), doc.end());
}

std::string_view view(const std::vector<char>& buf) {
  return {buf.data(), buf.size()};
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, MutatedDocumentsNeverCrash) {
  SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 400; ++trial) {
    std::string doc = trial % 2 == 0 ? kSeedDoc : kTypedSeedDoc;
    const std::uint64_t mutations = 1 + rng.next_below(8);
    for (std::uint64_t m = 0; m < mutations; ++m) {
      const std::uint64_t pos = rng.next_below(doc.size());
      switch (rng.next_below(4)) {
        case 0:  // flip a byte
          doc[pos] = static_cast<char>(rng.next());
          break;
        case 1:  // delete a byte
          doc.erase(pos, 1);
          break;
        case 2:  // duplicate a slice
          doc.insert(pos, doc.substr(pos, rng.next_below(10)));
          break;
        default:  // insert a metacharacter
          doc.insert(pos, 1, "<>&\"'["[rng.next_below(6)]);
      }
      if (doc.empty()) break;
    }
    const std::vector<char> buf = exact_copy(doc);
    // Both typed decoders must agree; each must fail only with DecodeError.
    xmltest::typed_parse_matches_oracle(view(buf));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz,
                         ::testing::Range<std::uint64_t>(1, 11));

TEST(XmlFuzz, RandomBytesNeverCrash) {
  SplitMix64 rng(424242);
  for (int trial = 0; trial < 500; ++trial) {
    std::string doc;
    const std::uint64_t n = rng.next_below(200);
    for (std::uint64_t i = 0; i < n; ++i) {
      doc.push_back(static_cast<char>(rng.next()));
    }
    const std::vector<char> buf = exact_copy(doc);
    try {
      parse_xml(view(buf));
    } catch (const ParseError&) {
    }
    xmltest::typed_parse_matches_oracle(view(buf));
  }
}

TEST(XmlFuzz, DeepNestingHitsTheDepthLimitNotTheStack) {
  // Unbounded recursion is a stack-exhaustion attack; the parser must
  // refuse pathologically deep documents instead of crashing.
  std::string doc;
  const int depth = 20000;
  for (int i = 0; i < depth; ++i) doc += "<a>";
  for (int i = 0; i < depth; ++i) doc += "</a>";
  EXPECT_THROW(parse_xml(doc), ParseError);

  // Anything under the limit parses fine.
  std::string ok_doc;
  for (int i = 0; i < 1000; ++i) ok_doc += "<a>";
  for (int i = 0; i < 1000; ++i) ok_doc += "</a>";
  EXPECT_NO_THROW(parse_xml(ok_doc));

  // And the limit is configurable.
  ParseOptions tight;
  tight.max_depth = 3;
  EXPECT_THROW(parse_xml("<a><b><c><d/></c></b></a>", tight), ParseError);
  EXPECT_NO_THROW(parse_xml("<a><b><c/></b></a>", tight));
}

TEST(XmlFuzz, WriterOutputAlwaysReparses) {
  // Generator-based: any tree the writer emits must be accepted by the
  // parser (writer/parser consistency).
  SplitMix64 rng(99);
  using namespace bxsoap::xdm;
  for (int trial = 0; trial < 100; ++trial) {
    auto root = make_element(QName("r"));
    for (std::uint64_t i = 0, n = rng.next_below(6); i < n; ++i) {
      std::string text;
      for (std::uint64_t j = 0, m = rng.next_below(12); j < m; ++j) {
        text.push_back(static_cast<char>(0x20 + rng.next_below(0x5F)));
      }
      if (rng.next_bool()) {
        root->add_text(text);
      } else {
        root->add_attribute(QName("k" + std::to_string(i)), text);
      }
    }
    const std::string out = write_xml(*root);
    EXPECT_NO_THROW(parse_xml(out)) << out;
  }
}

}  // namespace
}  // namespace bxsoap::xml
