#include "bxsa/stream_writer.hpp"

#include <gtest/gtest.h>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "common/buffer_pool.hpp"
#include "common/hex.hpp"
#include "common/prng.hpp"
#include "xdm/equal.hpp"

namespace bxsoap::bxsa {
namespace {

using namespace bxsoap::xdm;

/// One writer per byte order over every event kind, with namespace
/// resolution on each path: an exact prefix match, a URI-only match, an
/// inherited declaration and an auto-declaration.
std::string golden_stream(ByteOrder order) {
  StreamWriter w(order);
  const NamespaceDecl decls[] = {{"a", "urn:a"}, {"b", "urn:b"}};
  const Attribute attrs[] = {{QName("urn:b", "id", "b"), std::int32_t{7}},
                             {QName("urn:c", "s", "c"), std::string("v")},
                             {QName("f"), true},
                             {QName("x"), 2.5}};
  const std::int16_t items[] = {1, -2, 3};
  w.start_document();
  w.start_element(QName("urn:a", "root", "a"), decls, attrs);
  w.leaf(QName("urn:a", "n", "z"), std::uint16_t{513});
  w.leaf(QName("urn:d", "t", "d"), std::string("txt"));
  w.leaf(QName("ok"), false, {}, attrs);
  w.array(QName("urn:b", "arr", "b"), std::span<const std::int16_t>(items),
          "i");
  w.text("hi");
  w.comment("c");
  w.pi("t", "d");
  w.end_element();
  w.end_document();
  return to_hex(w.take());
}

TEST(StreamWriter, GoldenBytes) {
  // Pins the streaming writer's bytes as golden_test pins the encoder's.
  EXPECT_EQ(golden_stream(ByteOrder::kLittle),
      "01d381808000818080800002c8818080000301610575726e3a6101620575726e"
      "3a6201630575726e3a63010004726f6f74040101026964050700000001020173"
      "0001760001660b010001780a0000000000000440878080800003898080800000"
      "0200016e000401020393808080000101640575726e3a64010001740000037478"
      "7403aa808080000000026f6b0402010269640507000000020201730001760001"
      "660b010001780a00000000000004400b00049380808000000201036172720003"
      "016903000100feff0300050302686907020163060401740164");
  EXPECT_EQ(golden_stream(ByteOrder::kBig),
      "41d381808000818080800042c8818080000301610575726e3a6101620575726e"
      "3a6201630575726e3a63010004726f6f74040101026964050000000701020173"
      "0001760001660b010001780a4004000000000000878080800043898080800000"
      "0200016e000402014393808080000101640575726e3a64010001740000037478"
      "7443aa808080000000026f6b0402010269640500000007020201730001760001"
      "660b010001780a40040000000000000b00449380808000000201036172720003"
      "016903000001fffe0003450302686947020163460401740164");
}

TEST(StreamWriter, ProducesDecodableDocument) {
  StreamWriter w;
  w.start_document();
  const NamespaceDecl ns[] = {{"x", "urn:x"}};
  const Attribute attrs[] = {{QName("run"), std::int32_t{7}}};
  w.start_element(QName("urn:x", "data", "x"), ns, attrs);
  w.leaf(QName("t"), 287.5);
  const std::vector<std::int32_t> idx = {1, 2, 3};
  w.array(QName("idx"), std::span<const std::int32_t>(idx));
  w.text("note");
  w.comment("c");
  w.pi("app", "hint");
  w.end_element();
  w.end_document();
  const auto bytes = w.take();

  const DocumentPtr doc = decode_document(bytes);
  const auto& root = static_cast<const Element&>(doc->root());
  EXPECT_EQ(root.name().namespace_uri, "urn:x");
  EXPECT_EQ(root.find_attribute("run")->text(), "7");
  EXPECT_EQ(root.child_count(), 5u);
  const auto* leaf = dynamic_cast<const LeafElement<double>*>(
      root.find_child("t"));
  ASSERT_NE(leaf, nullptr);
  EXPECT_EQ(leaf->get(), 287.5);
  const auto* arr = dynamic_cast<const ArrayElement<std::int32_t>*>(
      root.find_child("idx"));
  ASSERT_NE(arr, nullptr);
  EXPECT_EQ(arr->values(), idx);
}

TEST(StreamWriter, MatchesTreeEncoderSemantics) {
  // Same logical document via StreamWriter and via the tree encoder must
  // decode to deep-equal trees (bytes may differ: streaming pads fields).
  auto root = make_element(QName("urn:a", "r", "a"));
  root->declare_namespace("a", "urn:a");
  root->add_child(make_leaf<std::string>(QName("s"), std::string("v")));
  root->add_child(make_array<double>(QName("d"), {1.5, 2.5}));
  auto doc = make_document(std::move(root));
  const auto tree_bytes = encode(*doc);

  StreamWriter w;
  w.start_document();
  const NamespaceDecl ns[] = {{"a", "urn:a"}};
  w.start_element(QName("urn:a", "r", "a"), ns);
  w.leaf(QName("s"), std::string("v"));
  const std::vector<double> vals = {1.5, 2.5};
  w.array(QName("d"), std::span<const double>(vals));
  w.end_element();
  w.end_document();
  const auto stream_bytes = w.take();

  const NodePtr via_tree = decode(tree_bytes);
  const NodePtr via_stream = decode(stream_bytes);
  EXPECT_TRUE(deep_equal(*via_tree, *via_stream))
      << first_difference(*via_tree, *via_stream);
}

TEST(StreamWriter, ArrayAlignmentHolds) {
  StreamWriter w;
  w.start_document();
  w.start_element(QName("padme"));
  const std::vector<double> vals = {1.0, 2.0};
  w.array(QName("a"), std::span<const double>(vals));
  w.end_element();
  w.end_document();
  const auto bytes = w.take();

  double one = 1.0;
  std::uint8_t pattern[8];
  std::memcpy(pattern, &one, 8);
  for (std::size_t off = 0; off + 8 <= bytes.size(); ++off) {
    if (std::memcmp(bytes.data() + off, pattern, 8) == 0) {
      EXPECT_EQ(off % 8, 0u);
      return;
    }
  }
  FAIL() << "payload not found";
}

TEST(StreamWriter, BigEndianOutputDecodes) {
  StreamWriter w(ByteOrder::kBig);
  w.start_element(QName("r"));
  const std::vector<std::int16_t> vals = {-1, 256};
  w.array(QName("a"), std::span<const std::int16_t>(vals));
  w.leaf(QName("v"), 3.5f);
  w.end_element();
  const auto bytes = w.take();

  const NodePtr node = decode(bytes);
  const auto& root = static_cast<const Element&>(*node);
  EXPECT_EQ(dynamic_cast<const ArrayElement<std::int16_t>*>(
                root.find_child("a"))
                ->values(),
            vals);
  EXPECT_EQ(dynamic_cast<const LeafElement<float>*>(root.find_child("v"))
                ->get(),
            3.5f);
}

TEST(StreamWriter, TopLevelElementWithoutDocument) {
  StreamWriter w;
  w.start_element(QName("bare"));
  w.leaf(QName("v"), true);
  w.end_element();
  const auto bytes = w.take();
  const NodePtr node = decode(bytes);
  EXPECT_EQ(node->kind(), NodeKind::kElement);
}

TEST(StreamWriter, NamespaceInheritanceAcrossLevels) {
  StreamWriter w;
  const NamespaceDecl ns[] = {{"p", "urn:p"}};
  w.start_element(QName("urn:p", "outer", "p"), ns);
  w.start_element(QName("urn:p", "inner", "p"));  // resolves via parent
  w.end_element();
  w.end_element();
  const auto bytes = w.take();
  const NodePtr node = decode(bytes);
  const auto& outer = static_cast<const Element&>(*node);
  const ElementBase* inner = outer.find_child("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->name().namespace_uri, "urn:p");
  EXPECT_EQ(inner->name().prefix, "p");
}

TEST(StreamWriterErrors, MisnestingDetected) {
  {
    StreamWriter w;
    EXPECT_THROW(w.end_element(), EncodeError);
  }
  {
    StreamWriter w;
    w.start_document();
    EXPECT_THROW(w.end_element(), EncodeError) << "document open, not element";
  }
  {
    StreamWriter w;
    w.start_element(QName("r"));
    EXPECT_THROW(w.end_document(), EncodeError);
  }
  {
    StreamWriter w;
    w.start_element(QName("r"));
    w.start_element(QName("c"));
    EXPECT_THROW(w.take(), EncodeError) << "unclosed scopes";
  }
  {
    StreamWriter w;
    w.start_document();
    EXPECT_THROW(w.start_document(), EncodeError);
  }
}

TEST(StreamWriterErrors, UseAfterEndDocumentThrows) {
  StreamWriter w;
  w.start_document();
  w.end_document();
  EXPECT_THROW(w.text("late"), EncodeError);
}

TEST(StreamWriter, LargeStreamedDatasetRoundTrips) {
  SplitMix64 rng(17);
  StreamWriter w;
  w.start_document();
  w.start_element(QName("chunks"));
  std::vector<double> all;
  for (int chunk = 0; chunk < 50; ++chunk) {
    std::vector<double> v(1000);
    for (auto& x : v) x = rng.next_double01();
    all.insert(all.end(), v.begin(), v.end());
    w.array(QName("chunk" + std::to_string(chunk)),
            std::span<const double>(v));
  }
  w.end_element();
  w.end_document();
  const auto bytes = w.take();

  const DocumentPtr doc = decode_document(bytes);
  const auto& root = static_cast<const Element&>(doc->root());
  EXPECT_EQ(root.child_count(), 50u);
  std::vector<double> gathered;
  for (const ElementBase* c : root.child_elements()) {
    const auto& arr = static_cast<const ArrayElement<double>&>(*c);
    gathered.insert(gathered.end(), arr.values().begin(), arr.values().end());
  }
  EXPECT_EQ(gathered, all);
}

// A chunked writer recycles: every buffer it takes from the pool comes
// back, the last one through the sink, none freed with the writer.
TEST(StreamWriter, ChunkedWriterReturnsEveryBufferToThePool) {
  BufferPool pool;
  std::size_t chunks = 0;
  {
    StreamWriter w(ByteOrder::kLittle, 512, pool,
                   [&](std::vector<std::uint8_t> chunk) {
                     ++chunks;
                     pool.release(std::move(chunk));
                   });
    const std::vector<double> values(300, 1.5);
    w.start_document();
    w.start_element(QName("data"));
    w.array(QName("xs"), std::span<const double>(values));
    w.end_element();
    w.end_document();
    w.finish();
  }
  EXPECT_GT(chunks, 2u);
  EXPECT_EQ(pool.pooled_buffers(), pool.stats().miss);
}

}  // namespace
}  // namespace bxsoap::bxsa
