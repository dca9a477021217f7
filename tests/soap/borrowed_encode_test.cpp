// Differential test of the BXSA encode paths the engine sends from.
//
// The engine serializes a request either contiguously (serialize_into) or,
// on a binding with a gathered send, into a framing buffer plus the packed
// arrays it borrows from the envelope. Spliced back together in order, the
// borrowed form must be the contiguous bytes exactly, over every corpus
// here: the golden frame shapes, mutants the decoder accepts, LEAD
// datasets of the model sizes the benches send, and every array pad.
#include <gtest/gtest.h>

#include <climits>
#include <memory>
#include <string>
#include <vector>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "common/prng.hpp"
#include "services/verification.hpp"
#include "soap/encoding.hpp"
#include "support/mutate.hpp"
#include "workload/lead.hpp"
#include "xbs/xbs.hpp"
#include "xdm/node.hpp"

namespace bxsoap::soap {
namespace {

using namespace bxsoap::xdm;

ByteOrder other_order() {
  return host_byte_order() == ByteOrder::kLittle ? ByteOrder::kBig
                                                 : ByteOrder::kLittle;
}

/// serialize_into after `prefix` reserved bytes (a frame header's place).
std::vector<std::uint8_t> contiguous(const Document& doc, ByteOrder order,
                                     std::size_t prefix = 0) {
  ByteWriter w;
  w.write_padding(prefix);
  BxsaEncoding(order).serialize_into(doc, w);
  return w.take();
}

/// A borrowed encode after `prefix` reserved bytes: the framing buffer,
/// its runs, and the two joined in wire order.
struct Borrowed {
  std::vector<std::uint8_t> framing;
  std::vector<BorrowedRun> runs;
  std::vector<std::uint8_t> joined;
};

Borrowed borrow(const Document& doc, ByteOrder order, std::size_t prefix = 0) {
  Borrowed b;
  ByteWriter w;
  w.write_padding(prefix);
  BxsaEncoding(order).serialize_borrowed(doc, w, b.runs);
  b.framing = w.take();
  for_each_piece(b.framing, b.runs, [&](std::span<const std::uint8_t> p) {
    b.joined.insert(b.joined.end(), p.begin(), p.end());
  });
  return b;
}

/// The bytes the borrowed encode puts on the wire, after `prefix`
/// reserved bytes.
std::vector<std::uint8_t> borrowed(const Document& doc, ByteOrder order,
                                   std::size_t prefix = 0) {
  return borrow(doc, order, prefix).joined;
}

void expect_same_both_ways(const Document& doc, const std::string& what) {
  SCOPED_TRACE(what);
  for (const ByteOrder order : {host_byte_order(), other_order()}) {
    for (const std::size_t prefix : {0, 3}) {
      EXPECT_EQ(borrowed(doc, order, prefix), contiguous(doc, order, prefix))
          << "order " << static_cast<int>(order) << ", prefix " << prefix;
    }
  }
}

DocumentPtr wrap(NodePtr node) { return make_document(std::move(node)); }

/// A document with every frame type: namespaces, attributes, typed leaves,
/// packed arrays (one of `big_items` doubles), text, comments and a PI.
DocumentPtr rich_document(std::size_t big_items) {
  auto root = make_element(QName("urn:diff", "root", "d"));
  root->declare_namespace("d", "urn:diff");
  root->add_attribute(QName("version"), std::string("1"));
  root->add_attribute(QName("count"), std::int32_t{42});
  auto inner = make_element(QName("urn:diff", "inner", "d"));
  inner->add_child(make_leaf<std::string>(QName("name"), "borrowed corpus"));
  inner->add_child(make_leaf<double>(QName("temp"), 291.5));
  inner->add_child(make_leaf<bool>(QName("ok"), true));
  inner->add_child(make_array<std::int32_t>(QName("ids"), {1, 2, 3, 5, 8}));
  std::vector<double> big(big_items);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0.25 * double(i);
  inner->add_child(make_array<double>(QName("samples"), std::move(big)));
  inner->add_child(std::make_unique<TextNode>("between the frames"));
  root->add_child(std::move(inner));
  root->add_child(std::make_unique<CommentNode>("corpus comment"));
  root->add_child(std::make_unique<PINode>("target", "pi payload"));
  return wrap(std::move(root));
}

TEST(BorrowedEncode, GoldenFrameShapesMatchContiguous) {
  expect_same_both_ways(*wrap(make_leaf<std::int8_t>(QName("v"), 1)), "leaf");
  expect_same_both_ways(*wrap(make_leaf<std::int16_t>(QName("v"), 0x0102)),
                        "int16 leaf");
  expect_same_both_ways(
      *wrap(make_array<std::int16_t>(QName("a"), {1, 2})), "int16 array");
  {
    auto doc = std::make_unique<Document>();
    doc->add_child(std::make_unique<CommentNode>("x"));
    doc->add_child(std::make_unique<PINode>("t", "d"));
    doc->add_child(make_element(QName("e")));
    expect_same_both_ways(*doc, "comment, PI and an empty element");
  }
  expect_same_both_ways(*rich_document(5), "rich document, small arrays");
  expect_same_both_ways(*rich_document(40'000), "rich document, big array");
}

TEST(BorrowedEncode, MutationAcceptedCorpusMatchesContiguous) {
  const std::vector<std::uint8_t> seeds[] = {
      bxsa::encode(*rich_document(5)),
      bxsa::encode(*rich_document(5000)),
  };
  std::size_t accepted = 0;
  for (std::uint64_t seed = 0; seed < 600; ++seed) {
    SplitMix64 rng(seed);
    const auto mutant =
        mutate(seeds[rng.next_below(std::size(seeds))], rng);
    NodePtr tree;
    try {
      tree = bxsa::decode(mutant);
    } catch (const Error&) {
      continue;
    }
    if (tree->kind() != NodeKind::kDocument) continue;
    ++accepted;
    expect_same_both_ways(static_cast<const Document&>(*tree),
                          "mutant seed " + std::to_string(seed));
  }
  EXPECT_GT(accepted, 0u);
}

TEST(BorrowedEncode, LeadDatasetsMatchContiguous) {
  for (const std::size_t n : {0, 1, 7, 1000, 349'440}) {
    const SoapEnvelope request =
        services::make_data_request(workload::make_lead_dataset(n));
    const Document& doc = request.document();
    SCOPED_TRACE("model size " + std::to_string(n));
    EXPECT_EQ(borrowed(doc, host_byte_order()),
              contiguous(doc, host_byte_order()));
    EXPECT_EQ(borrowed(doc, other_order()), contiguous(doc, other_order()));
  }
}

TEST(BorrowedEncode, LeadUploadBorrowsBothArrays) {
  const SoapEnvelope request =
      services::make_data_request(workload::make_lead_dataset(349'440));
  const Borrowed b = borrow(request.document(), host_byte_order());
  ASSERT_EQ(b.runs.size(), 2u);
  // Only framing and pads stay in the buffer: under a kilobyte of 4 MiB.
  EXPECT_LT(b.framing.size(), 1024u);
  EXPECT_EQ(b.runs[0].bytes.size(), 349'440u * sizeof(std::int32_t));
  EXPECT_EQ(b.runs[1].bytes.size(), 349'440u * sizeof(double));
}

/// A document holding `before` bytes of text ahead of one array, so the
/// array's pad takes every value its item size allows.
template <typename T>
DocumentPtr array_after_text(std::size_t before, std::size_t items) {
  auto root = make_element(QName("r"));
  root->add_child(std::make_unique<TextNode>(std::string(before, 'x')));
  std::vector<T> values(items);
  for (std::size_t i = 0; i < items; ++i) values[i] = static_cast<T>(i * 7);
  root->add_child(make_array<T>(QName("a"), std::move(values)));
  return wrap(std::move(root));
}

template <typename T>
void expect_every_pad_borrowed() {
  const std::size_t items = xbs::kBorrowMinBytes / sizeof(T) + 3;
  for (std::size_t before = 0; before < 8; ++before) {
    SCOPED_TRACE("item size " + std::to_string(sizeof(T)) + ", " +
                 std::to_string(before) + " bytes before");
    const DocumentPtr doc = array_after_text<T>(before, items);
    const Borrowed b = borrow(*doc, host_byte_order());
    ASSERT_EQ(b.runs.size(), 1u);
    EXPECT_EQ(b.joined, contiguous(*doc, host_byte_order()));
    // The run starts aligned to its item size from the payload origin.
    EXPECT_EQ(b.runs[0].at % sizeof(T), 0u);
  }
}

TEST(BorrowedEncode, EveryPadBeforeABorrowedArray) {
  expect_every_pad_borrowed<std::uint8_t>();
  expect_every_pad_borrowed<std::int16_t>();
  expect_every_pad_borrowed<float>();
  expect_every_pad_borrowed<std::int32_t>();
  expect_every_pad_borrowed<double>();
  expect_every_pad_borrowed<std::uint64_t>();
}

TEST(BorrowedEncode, NonHostOrderCopiesAndSwaps) {
  const DocumentPtr doc = array_after_text<double>(3, 10'000);
  const Borrowed b = borrow(*doc, other_order());
  EXPECT_TRUE(b.runs.empty());
  EXPECT_EQ(b.framing, contiguous(*doc, other_order()));
  // A byte array needs no swap in any order, so it is still borrowed.
  const DocumentPtr bytes =
      array_after_text<std::uint8_t>(3, xbs::kBorrowMinBytes);
  const Borrowed bb = borrow(*bytes, other_order());
  EXPECT_EQ(bb.runs.size(), 1u);
  EXPECT_EQ(bb.joined, contiguous(*bytes, other_order()));
}

TEST(BorrowedEncode, ThresholdEdges) {
  const std::size_t at = xbs::kBorrowMinBytes / sizeof(double);
  const DocumentPtr below = array_after_text<double>(1, at - 1);
  const DocumentPtr exact = array_after_text<double>(1, at);
  const DocumentPtr above = array_after_text<double>(1, at + 1);
  EXPECT_TRUE(borrow(*below, host_byte_order()).runs.empty());
  EXPECT_EQ(borrow(*exact, host_byte_order()).runs.size(), 1u);
  EXPECT_EQ(borrow(*above, host_byte_order()).runs.size(), 1u);
  for (const Document* d : {below.get(), exact.get(), above.get()}) {
    EXPECT_EQ(borrowed(*d, host_byte_order()),
              contiguous(*d, host_byte_order()));
  }
  const DocumentPtr small_bytes =
      array_after_text<std::uint8_t>(0, xbs::kBorrowMinBytes - 1);
  EXPECT_TRUE(borrow(*small_bytes, host_byte_order()).runs.empty());
}

TEST(BorrowedEncode, EmptyArrays) {
  auto root = make_element(QName("r"));
  root->add_child(make_array<double>(QName("none"), {}));
  root->add_child(make_array<std::uint8_t>(QName("no_bytes"), {}));
  std::vector<double> big(xbs::kBorrowMinBytes / sizeof(double), 1.5);
  root->add_child(make_array<double>(QName("big"), std::move(big)));
  root->add_child(make_array<std::int32_t>(QName("none_after"), {}));
  const DocumentPtr doc = wrap(std::move(root));
  const Borrowed b = borrow(*doc, host_byte_order());
  EXPECT_EQ(b.runs.size(), 1u);
  EXPECT_EQ(b.joined, contiguous(*doc, host_byte_order()));
}

TEST(BorrowedEncode, MoreArraysThanIovMax) {
  // IOV_MAX + 50 threshold-sized arrays, all views of one shared buffer so
  // the document itself stays small.
  const std::size_t items = xbs::kBorrowMinBytes / sizeof(double);
  auto storage = std::make_shared<std::vector<double>>(items);
  for (std::size_t i = 0; i < items; ++i) (*storage)[i] = double(i) - 0.5;
  auto root = make_element(QName("many"));
  for (std::size_t k = 0; k < IOV_MAX + 50; ++k) {
    // Odd-length text between arrays varies every pad.
    root->add_child(std::make_unique<TextNode>(std::string(k % 8, 'p')));
    auto a = std::make_unique<ArrayElement<double>>(QName("a"));
    a->set_view(*storage, storage);
    root->add_child(std::move(a));
  }
  const DocumentPtr doc = wrap(std::move(root));
  const Borrowed b = borrow(*doc, host_byte_order());
  EXPECT_EQ(b.runs.size(), std::size_t{IOV_MAX} + 50);
  EXPECT_EQ(b.joined, contiguous(*doc, host_byte_order()));
}

}  // namespace
}  // namespace bxsoap::soap
