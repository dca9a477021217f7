// Structure-aware mutation harness for the BXSA readers.
//
// Valid frame buffers are mutated under a seeded PRNG (bit flips,
// truncations, splices, range fills) and pushed through every consumer of
// untrusted bytes — the tree decoder, the pull StreamReader (and validate()
// on top of it), the FrameScanner and the v3 dictionary transform. Two
// contracts are under test:
//   * hostile input costs a DecodeError (or TransportError at the framing
//     layer), NEVER a crash, a hang or an unbounded allocation;
//   * the readers agree: decode accepts exactly the mutants StreamReader
//     drains and validate() passes, and every accepted mutant survives the
//     dictionary round trip unchanged.
// Run under the asan-ubsan preset (scripts/check.sh) this is the repo's
// deterministic fuzz gate; every failure reproduces from its seed.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "bxsa/decoder.hpp"
#include "bxsa/dict.hpp"
#include "bxsa/encoder.hpp"
#include "bxsa/frame.hpp"
#include "bxsa/scanner.hpp"
#include "bxsa/stream_reader.hpp"
#include "bxsa/validate.hpp"
#include "common/lzss.hpp"
#include "common/prng.hpp"
#include "support/mutate.hpp"
#include "xbs/xbs.hpp"
#include "xdm/node.hpp"

namespace bxsoap::bxsa {
namespace {

using namespace bxsoap::xdm;

// ---- corpus ----------------------------------------------------------------

/// A document exercising every frame type: namespaces, attributes, typed
/// leaves, packed arrays, text, comments and PIs.
DocumentPtr rich_document() {
  auto root = make_element(QName("urn:chaos", "root", "c"));
  root->declare_namespace("c", "urn:chaos");
  root->add_attribute(QName("version"), std::string("1"));
  root->add_attribute(QName("count"), std::int32_t{42});

  auto inner = make_element(QName("urn:chaos", "inner", "c"));
  inner->add_child(make_leaf<std::string>(QName("name"), "mutation corpus"));
  inner->add_child(make_leaf<double>(QName("temp"), 291.5));
  inner->add_child(make_leaf<bool>(QName("ok"), true));
  inner->add_child(
      make_array<std::int32_t>(QName("ids"), {1, 2, 3, 5, 8, 13, 21}));
  inner->add_child(make_array<double>(QName("samples"),
                                      {0.5, -1.25, 3.75, 1e300, -2e-300}));
  inner->add_child(std::make_unique<TextNode>("between the frames"));
  root->add_child(std::move(inner));
  root->add_child(std::make_unique<CommentNode>("corpus comment"));
  root->add_child(std::make_unique<PINode>("target", "pi payload"));

  auto doc = std::make_unique<Document>();
  doc->add_child(std::move(root));
  return doc;
}

std::vector<std::vector<std::uint8_t>> build_corpus() {
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back(encode(*rich_document()));
  EncodeOptions big;
  big.order = ByteOrder::kBig;
  corpus.push_back(encode(*rich_document(), big));
  // A wide, shallow document (many siblings) and a deep, narrow one.
  {
    auto root = make_element(QName("wide"));
    for (int i = 0; i < 40; ++i) {
      root->add_child(make_leaf<std::int32_t>(QName("n"), i));
    }
    corpus.push_back(encode(*make_document(std::move(root))));
  }
  {
    auto leaf = make_element(QName("d"));
    NodePtr node = std::move(leaf);
    for (int i = 0; i < 24; ++i) {
      auto parent = make_element(QName("d"));
      parent->add_child(std::move(node));
      node = std::move(parent);
    }
    corpus.push_back(encode(*make_document(std::move(node))));
  }
  return corpus;
}

// ---- consumers under test --------------------------------------------------

/// Pull every event; a mutation must not turn the reader into an infinite
/// loop, so the cap failure is a std::runtime_error (NOT a bxsoap::Error)
/// and fails the test instead of being swallowed.
void drain_stream_reader(std::span<const std::uint8_t> bytes) {
  StreamReader reader(bytes);
  std::size_t events = 0;
  while (reader.next()) {
    if (++events > 1'000'000) {
      throw std::runtime_error("stream reader event cap exceeded");
    }
  }
}

/// Depth-first scanner walk with an explicit stack and a visit cap.
void walk_scanner(std::span<const std::uint8_t> bytes) {
  if (bytes.empty()) return;
  const FrameScanner scanner(bytes);
  std::vector<std::pair<FrameInfo, std::size_t>> stack;  // frame, limit
  stack.push_back({scanner.frame_at(0), bytes.size()});
  std::size_t visits = 0;
  while (!stack.empty()) {
    if (++visits > 100'000) {
      throw std::runtime_error("scanner visit cap exceeded");
    }
    auto [frame, limit] = stack.back();
    stack.pop_back();
    if (auto sibling = scanner.next(frame, limit)) {
      stack.push_back({*sibling, limit});
    }
    switch (frame.type) {
      case FrameType::kDocument:
      case FrameType::kComponentElement:
        if (frame.type == FrameType::kComponentElement) {
          scanner.element_local_name(frame);
        }
        if (auto child = scanner.first_child(frame)) {
          stack.push_back({*child, frame.end()});
        }
        break;
      case FrameType::kLeafElement:
        scanner.element_local_name(frame);
        break;
      case FrameType::kArrayElement:
        scanner.array_view(frame);
        break;
      default:
        break;
    }
  }
}

/// Plain -> dictionary-coded -> plain through a fresh mirrored table pair.
std::vector<std::uint8_t> dict_round_trip(std::span<const std::uint8_t> in) {
  SymbolDictionary enc_dict({});
  SymbolDictionary dec_dict({});
  ByteWriter coded;
  dict_encode(in, enc_dict, coded);
  ByteWriter plain;
  dict_decode(coded.bytes(), dec_dict, plain);
  return plain.take();
}

template <typename F>
bool accepts(F&& reader) {
  try {
    reader();
    return true;
  } catch (const Error&) {
    return false;
  }
}

// ---- the harness -----------------------------------------------------------

TEST(Mutation, EveryMutantYieldsTypedErrorOrDecodes) {
  const auto corpus = build_corpus();
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 5000; ++seed) {
    SplitMix64 rng(seed);
    const auto& original = corpus[static_cast<std::size_t>(
        rng.next_below(corpus.size()))];
    const auto mutant = mutate(original, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));

    NodePtr tree;
    const bool decode_ok = accepts([&] { tree = decode(mutant); });
    const bool stream_ok = accepts([&] { drain_stream_reader(mutant); });
    const bool valid = validate(mutant).valid;
    EXPECT_EQ(decode_ok, stream_ok);
    EXPECT_EQ(decode_ok, valid);
    try {
      walk_scanner(mutant);
    } catch (const Error&) {
    }

    if (!decode_ok) {
      ++rejected;  // DecodeError (or kin): the contract
      // The transform accepts a superset (it resolves no QNameRef and checks
      // no bool byte); it only has to fail typed.
      try {
        dict_round_trip(mutant);
      } catch (const Error&) {
      }
      continue;
    }
    ++decoded;
    // Compared through canonical re-encoding: bitwise, so NaN payloads a
    // mutation produced compare equal (deep_equal holds NaN != NaN).
    std::vector<std::uint8_t> round;
    ASSERT_NO_THROW(round = dict_round_trip(mutant));
    NodePtr round_tree;
    ASSERT_NO_THROW(round_tree = decode(round));
    EXPECT_EQ(encode(*round_tree), encode(*tree));
  }
  // The mix must exercise both sides of the contract: most mutants are
  // rejected, some survive mutation (e.g. a bit flip inside array data).
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(decoded, 0u);
}

/// A Document holding `components` nested component elements around one
/// leaf: 2 + components frames deep.
std::vector<std::uint8_t> nested_document(int components) {
  NodePtr node = make_leaf<std::int32_t>(QName("leaf"), 7);
  for (int i = 0; i < components; ++i) {
    auto parent = make_element(QName("n"));
    parent->add_child(std::move(node));
    node = std::move(parent);
  }
  return encode(*make_document(std::move(node)));
}

TEST(Mutation, EveryReaderAcceptsTheDeepestAllowedDocument) {
  // Document + 1022 components + leaf = 1024 nested frames: the cap.
  const auto bytes = nested_document(1022);
  EXPECT_NO_THROW(decode(bytes));
  EXPECT_NO_THROW(decode_message(SharedBuffer::adopt(bytes)));
  EXPECT_NO_THROW(drain_stream_reader(bytes));
  const ValidationReport report = validate(bytes);
  EXPECT_TRUE(report.valid) << report.error;
  std::vector<std::uint8_t> round;
  ASSERT_NO_THROW(round = dict_round_trip(bytes));
  EXPECT_EQ(round, bytes);
}

TEST(Mutation, EveryReaderRejectsOneFrameDeeper) {
  // Document + 1023 components + leaf = 1025 nested frames.
  const auto bytes = nested_document(1023);
  EXPECT_THROW(decode(bytes), DecodeError);
  EXPECT_THROW(decode_message(SharedBuffer::adopt(bytes)), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
  EXPECT_FALSE(validate(bytes).valid);
  EXPECT_THROW(dict_round_trip(bytes), DecodeError);
}

TEST(Mutation, CompressedLayerRejectsMutantsTyped) {
  const auto bytes = encode(*rich_document());
  const auto compressed = lzss_compress(bytes);
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    SplitMix64 rng(seed ^ 0xC0FFEE);
    const auto mutant = mutate(compressed, rng);
    SCOPED_TRACE("seed " + std::to_string(seed));
    try {
      const auto plain = lzss_decompress(mutant);
      // If decompression survived, the decoders must still hold the line.
      try {
        decode(plain);
      } catch (const Error&) {
      }
    } catch (const Error&) {
    }
  }
}

// ---- targeted resource-limit probes ----------------------------------------

TEST(DecoderLimits, NestingBombRejectedByBothDecoders) {
  // 1500 nested elements: over the 1024-frame depth cap of both the tree
  // decoder and the stream reader.
  NodePtr node = make_element(QName("leaf"));
  for (int i = 0; i < 1500; ++i) {
    auto parent = make_element(QName("n"));
    parent->add_child(std::move(node));
    node = std::move(parent);
  }
  const auto bytes = encode(*make_document(std::move(node)));
  EXPECT_THROW(decode_document(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
}

TEST(DecoderLimits, HostileNamespaceCountRejectedBeforeAllocation) {
  // A leaf frame whose header declares ~2^32 namespace declarations backed
  // by five bytes of input. Must throw, not reserve gigabytes (under ASan
  // an over-reservation aborts the process, so this also guards the
  // allocator path).
  xbs::Writer body;
  body.put_vls((1ull << 32) - 1);  // n1
  const auto body_bytes = body.take();
  xbs::Writer frame;
  frame.put_u8(make_prefix_byte(FrameType::kLeafElement, ByteOrder::kLittle));
  frame.put_vls(body_bytes.size());
  frame.put_raw(body_bytes.data(), body_bytes.size());
  const auto bytes = frame.take();
  EXPECT_THROW(decode(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
}

TEST(DecoderLimits, HostileArrayCountRejectedBeforeAllocation) {
  // A well-formed array header declaring 2^61 doubles: count * item
  // overflows size_t if multiplied naively.
  xbs::Writer body;
  body.put_vls(0);           // n1: no namespace declarations
  body.put_vls(0);           // QNameRef depth 0 -> literal name
  body.put_string("a");      //   local name
  body.put_vls(0);           // n2: no attributes
  body.put_u8(static_cast<std::uint8_t>(AtomType::kFloat64));
  body.put_string("item");   // item name
  body.put_vls(1ull << 61);  // count
  const auto body_bytes = body.take();
  xbs::Writer frame;
  frame.put_u8(make_prefix_byte(FrameType::kArrayElement, ByteOrder::kLittle));
  frame.put_vls(body_bytes.size());
  frame.put_raw(body_bytes.data(), body_bytes.size());
  const auto bytes = frame.take();
  EXPECT_THROW(decode(bytes), DecodeError);
  EXPECT_THROW(drain_stream_reader(bytes), DecodeError);
  EXPECT_THROW(walk_scanner(bytes), DecodeError);
}

TEST(DecoderLimits, LzssForgedSizeHeaderRejected) {
  // "LZS1" + declared size of 4 GiB over a 4-byte token body: the
  // amplification bound must refuse before reserving anything.
  std::vector<std::uint8_t> bomb = {'L', 'Z', 'S', '1'};
  bomb.resize(12, 0);
  bomb[8] = 0x01;  // size u64 LE = 1 << 32
  bomb.push_back(0x00);
  bomb.push_back(0x41);
  bomb.push_back(0x41);
  bomb.push_back(0x41);
  EXPECT_THROW(lzss_decompress(bomb), DecodeError);
}

}  // namespace
}  // namespace bxsoap::bxsa
