// Split-point and driver invariance of the BXTP frame parser.
//
// A corpus of BXTP conversations — v1 frames; v2 streams with data,
// compressed, patch, auth and end chunks; v3 Hello, Accept and Message
// frames with each flag; an Accept sent to a server — plus seeded mutants
// of each is decoded several ways: FrameAssembler fed one byte at a time,
// at seeded random cuts and whole, through feed() and through the
// read-into-place body_space() window, and by the blocking read_exact
// driver.
// Every way must reach the same accept/reject decision and produce
// byte-identical output (content type, version, flags, payload, chunks).
// Role checks are applied the way the call sites apply them: a client
// rejects a Hello, a server rejects an Accept.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/prng.hpp"
#include "soap/security.hpp"
#include "support/mutate.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"

namespace bxsoap::transport {
namespace {

/// A fresh HMAC-SHA-256 stream authenticator under the corpus key.
std::unique_ptr<StreamAuthenticator> hmac() {
  return soap::make_hmac_stream_auth("frame-parser-key")
      .make(authalgs::kHmacSha256);
}

/// Small ceilings, so corpus frames sit near every limit and mutants cross
/// them often.
FrameLimits test_limits() {
  FrameLimits l;
  l.max_message_bytes = 4096;
  l.max_content_type_bytes = 200;
  l.max_chunk_bytes = 1024;
  l.max_stream_bytes = 4096;
  return l;
}

/// Which end of a connection is reading, and what that end negotiated.
enum class Role {
  kPlainClient,       // v1 channel: v1 frames and unsigned v2 streams
  kNegotiatedClient,  // reads an Accept, then v3/v1 frames and signed,
                      // compressed v2 streams
  kServer,            // reads a Hello, then v3/v1 frames and signed,
                      // compressed v2 streams
};

struct Case {
  std::string name;
  Role role;
  std::vector<std::uint8_t> wire;
};

/// One thing a parser surfaced. Chunks carry their stream's content type.
struct Item {
  std::string what;  // "message", "chunk", "hello", "accept"
  std::uint8_t version = 0;
  std::uint8_t flags = 0;
  std::uint8_t kind = 0;
  std::string content_type;
  std::vector<std::uint8_t> bytes;

  bool operator==(const Item&) const = default;
};

struct Transcript {
  std::vector<Item> items;
  bool ok = false;  // consumed everything, ending between frames

  bool operator==(const Transcript&) const = default;
};

/// A decoded Hello or Accept, re-encoded without its 6-byte frame header,
/// so transcripts compare every field.
template <typename Frame, typename Encode>
std::vector<std::uint8_t> body_of(const Frame& f, Encode encode) {
  ByteWriter w;
  encode(w, f);
  return {w.bytes().begin() + 6, w.bytes().end()};
}
std::vector<std::uint8_t> hello_bytes(const HelloFrame& h) {
  return body_of(h, encode_hello);
}
std::vector<std::uint8_t> accept_bytes(const AcceptFrame& a) {
  return body_of(a, encode_accept);
}

/// A parser configured for `role`, with the authenticator it verifies with.
struct Reader {
  explicit Reader(Role role)
      : role(role),
        parser(test_limits(), &pool, role != Role::kPlainClient) {
    if (role != Role::kPlainClient) {
      parser.set_transforms(transforms::kAll);
      auth = hmac();
      parser.set_auth(auth.get(), authalgs::kHmacSha256);
    }
  }

  /// Move whatever the parser completed into `t`. A completed item the
  /// role may not take goes through take(), which rejects it the way the
  /// call sites do: a Hello at a client, an Accept at a server.
  void drain(Transcript& t) {
    if (parser.chunk_ready()) {
      std::string content_type = parser.stream_content_type();
      StreamChunk c = parser.take_chunk();
      t.items.push_back({"chunk", kFrameVersionChunked, 0,
                         static_cast<std::uint8_t>(c.kind),
                         std::move(content_type), std::move(c.bytes)});
    } else if (parser.hello_ready() && role == Role::kServer) {
      t.items.push_back({"hello", kFrameVersionNegotiated, 0, 0, "",
                         hello_bytes(parser.take_hello())});
    } else if (parser.accept_ready() && role == Role::kNegotiatedClient &&
               t.items.empty()) {
      t.items.push_back({"accept", kFrameVersionNegotiated, 0, 0, "",
                         accept_bytes(parser.take_accept())});
    } else if (parser.need() == 0) {
      const std::uint8_t version = parser.frame_version();
      const std::uint8_t flags = parser.frame_flags();
      soap::WireMessage m = parser.take();
      t.items.push_back({"message", version, flags, 0,
                         std::move(m.content_type), std::move(m.payload)});
    }
  }

  Role role;
  BufferPool pool;
  std::unique_ptr<StreamAuthenticator> auth;
  FrameAssembler parser;
};

/// FrameAssembler fed `wire` cut at `cuts` (ascending offsets). With
/// `in_place`, body bytes go through body_space()/commit() instead of
/// feed(), asking for a few bytes more than each piece holds.
Transcript by_feed(const Case& c, const std::vector<std::size_t>& cuts,
                   bool in_place = false) {
  Reader r(c.role);
  Transcript t;
  try {
    std::size_t from = 0;
    for (std::size_t i = 0; i <= cuts.size(); ++i) {
      const std::size_t to = i < cuts.size() ? cuts[i] : c.wire.size();
      std::span<const std::uint8_t> piece(c.wire.data() + from, to - from);
      from = to;
      while (!piece.empty()) {
        const std::span<std::uint8_t> window =
            in_place ? r.parser.body_space(piece.size() + 3)
                     : std::span<std::uint8_t>();
        if (!window.empty()) {
          const std::size_t n = std::min(window.size(), piece.size());
          std::memcpy(window.data(), piece.data(), n);
          r.parser.commit(n);
          piece = piece.subspan(n);
        } else {
          piece = piece.subspan(r.parser.feed(piece));
        }
        r.drain(t);
      }
    }
    t.ok = !r.parser.mid_frame();
  } catch (const TransportError&) {
    t.ok = false;
  }
  return t;
}

/// The blocking driver: read_until() over a MemoryStream holding `wire`,
/// reading exactly what the parser asks for.
Transcript by_stream(const Case& c) {
  MemoryStream in;
  in.write_all(c.wire);
  Reader r(c.role);
  Transcript t;
  try {
    while (in.pending() > 0 || r.parser.mid_frame()) {
      read_until(in, r.parser, [] { return false; });
      r.drain(t);
    }
    t.ok = true;
  } catch (const TransportError&) {
    t.ok = false;
  }
  return t;
}

// ---- corpus ----------------------------------------------------------------

std::vector<std::uint8_t> bytes_of(std::size_t n, std::uint8_t seed) {
  std::vector<std::uint8_t> out(n);
  SplitMix64 rng(seed);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

/// Compressible bytes: a short repeating pattern.
std::vector<std::uint8_t> pattern_of(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = "abcabd"[i % 6];
  return out;
}

std::vector<std::uint8_t> v1_frame(std::string_view ct,
                                   std::span<const std::uint8_t> payload) {
  MemoryStream s;
  write_frame(s, ct, payload);
  return s.read_exact(s.pending());
}

std::vector<std::uint8_t> v3_message(std::uint8_t flags, std::string_view ct,
                                     std::span<const std::uint8_t> payload) {
  ByteWriter w;
  const std::size_t len_pos = begin_frame_v3(w, flags, ct);
  w.write_bytes(payload);
  end_frame(w, len_pos);
  return w.take();
}

/// One v2 stream: `chunks` data chunks of `chunk_bytes`, a patch chunk,
/// and (when `signed_and_packed`) adaptive compression and an Auth trailer.
std::vector<std::uint8_t> v2_stream(std::size_t chunks,
                                    std::size_t chunk_bytes,
                                    bool signed_and_packed,
                                    bool compressible) {
  MemoryStream s;
  BufferPool pool;
  ChunkedFrameWriter<MemoryStream> w(s, "application/bxsa");
  std::unique_ptr<StreamAuthenticator> auth;
  if (signed_and_packed) {
    w.set_compression({transforms::kAll, CompressPolicy{}, &pool, {}});
    auth = hmac();
    w.set_auth(auth.get(), authalgs::kHmacSha256);
  }
  for (std::size_t i = 0; i < chunks; ++i) {
    w.write_data(compressible
                     ? pattern_of(chunk_bytes)
                     : bytes_of(chunk_bytes, static_cast<std::uint8_t>(i)));
  }
  bxsa::PatchRecord p{};
  p.offset = 1;
  p.len = 2;
  p.bytes[0] = 0xAA;
  p.bytes[1] = 0xBB;
  w.write_patches(std::span<const bxsa::PatchRecord>(&p, 1));
  w.finish();
  return s.read_exact(s.pending());
}

std::vector<std::uint8_t> cat(
    std::initializer_list<std::vector<std::uint8_t>> parts) {
  std::vector<std::uint8_t> out;
  for (const auto& p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

std::vector<std::uint8_t> hello_frame() {
  ByteWriter w;
  HelloFrame h;
  h.dict_max_entries = 300;
  h.dict_max_bytes = 70000;
  h.transforms = transforms::kAll;
  h.auth = authalgs::kHmacSha256;
  encode_hello(w, h);
  return w.take();
}

std::vector<std::uint8_t> accept_frame() {
  ByteWriter w;
  AcceptFrame a;
  a.dict_max_entries = 300;
  a.dict_max_bytes = 70000;
  a.transforms = transforms::kAll;
  a.auth = authalgs::kHmacSha256;
  encode_accept(w, a);
  return w.take();
}

/// `BXTP 01`, a 10-byte content-type VLS whose last byte carries bits past
/// bit 63, then a 3-byte payload.
std::vector<std::uint8_t> overflowing_vls_frame() {
  std::vector<std::uint8_t> f = {'B', 'X', 'T', 'P', 1};
  for (int i = 0; i < 9; ++i) f.push_back(0x80);
  f.push_back(0x02);
  for (int i = 0; i < 7; ++i) f.push_back(0);
  f.push_back(3);
  f.insert(f.end(), {1, 2, 3});
  return f;
}

std::vector<Case> build_corpus() {
  const std::string_view bxsa = "application/bxsa";
  const auto small = bytes_of(40, 1);
  const auto medium = bytes_of(700, 2);
  const std::string long_ct(150, 'c');  // a two-byte VLS length
  std::vector<Case> corpus;
  auto add = [&](std::string name, Role role, std::vector<std::uint8_t> w) {
    corpus.push_back({std::move(name), role, std::move(w)});
  };

  // v1 frames and plain v2 streams, as a v1 channel sees them.
  add("v1.one", Role::kPlainClient, v1_frame(bxsa, small));
  add("v1.empty_payload", Role::kPlainClient, v1_frame(bxsa, {}));
  add("v1.empty_ctype", Role::kPlainClient, v1_frame("", small));
  add("v1.long_ctype", Role::kPlainClient, v1_frame(long_ct, medium));
  add("v1.pipelined", Role::kPlainClient,
      cat({v1_frame(bxsa, small), v1_frame("text/xml", medium),
           v1_frame(bxsa, {})}));
  add("v2.plain", Role::kPlainClient, v2_stream(3, 200, false, false));
  add("v2.then_v1", Role::kPlainClient,
      cat({v2_stream(2, 100, false, false), v1_frame(bxsa, small)}));
  add("v1.overflowing_vls", Role::kPlainClient, overflowing_vls_frame());

  // A negotiated client: the Accept, then v3 messages with each flag, the
  // v1 frames a v3 server still sends, and signed (compressed) streams.
  add("v3c.accept_only", Role::kNegotiatedClient, accept_frame());
  add("v3c.messages", Role::kNegotiatedClient,
      cat({accept_frame(), v3_message(0, bxsa, small),
           v3_message(v3flags::kDictEncoded, bxsa, medium),
           v3_message(v3flags::kDictEncoded | v3flags::kDictReset, bxsa,
                      small),
           v3_message(v3flags::kCompressed, bxsa, medium),
           v3_message(v3flags::kAllKnown, long_ct, small),
           v1_frame(bxsa, small)}));
  add("v3c.signed_stream", Role::kNegotiatedClient,
      cat({accept_frame(), v2_stream(3, 300, true, false),
           v3_message(0, bxsa, {})}));
  add("v3c.packed_stream", Role::kNegotiatedClient,
      cat({accept_frame(), v2_stream(2, 900, true, true)}));
  add("v3c.hello_in_response_slot", Role::kNegotiatedClient,
      cat({accept_frame(), hello_frame()}));
  add("v3c.unknown_flags", Role::kNegotiatedClient,
      cat({accept_frame(), v3_message(0x80, bxsa, small)}));

  // A server: the Hello, then the same frame mix, and an Accept it must
  // refuse.
  add("v3s.hello_only", Role::kServer, hello_frame());
  add("v3s.messages", Role::kServer,
      cat({hello_frame(), v3_message(v3flags::kDictEncoded, bxsa, medium),
           v3_message(v3flags::kCompressed, bxsa, small),
           v1_frame(bxsa, small)}));
  add("v3s.streams", Role::kServer,
      cat({hello_frame(), v2_stream(2, 500, true, false),
           v2_stream(2, 900, true, true)}));
  add("v3s.accept_sent_to_server", Role::kServer,
      cat({hello_frame(), accept_frame()}));
  add("v3s.plain_stream_on_signed_channel", Role::kServer,
      cat({hello_frame(), v2_stream(1, 100, false, false)}));
  return corpus;
}

/// The cut sets every input is fed with: one byte at a time, `random_sets`
/// seeded random cut sets, and whole.
std::vector<std::vector<std::size_t>> cut_sets(std::size_t size,
                                               SplitMix64& rng,
                                               int random_sets) {
  std::vector<std::vector<std::size_t>> sets;
  sets.emplace_back();  // whole
  std::vector<std::size_t> every;
  for (std::size_t i = 1; i < size; ++i) every.push_back(i);
  sets.push_back(std::move(every));
  for (int s = 0; s < random_sets && size > 1; ++s) {
    std::vector<std::size_t> cuts;
    std::size_t at = 0;
    for (;;) {
      at += 1 + rng.next_below(64);
      if (at >= size) break;
      cuts.push_back(at);
    }
    sets.push_back(std::move(cuts));
  }
  return sets;
}

std::string describe(const Transcript& t) {
  std::string s = t.ok ? "ok" : "rejected";
  for (const auto& it : t.items) {
    s += " " + it.what + "(v" + std::to_string(it.version) + " f" +
         std::to_string(it.flags) + " k" + std::to_string(it.kind) + " ct" +
         std::to_string(it.content_type.size()) + " " +
         std::to_string(it.bytes.size()) + "B)";
  }
  return s;
}

/// Every cut set and the stream driver agree with the whole-buffer feed.
void expect_invariant(const Case& c, SplitMix64& rng, int random_sets) {
  const Transcript whole = by_feed(c, {});
  const Transcript stream = by_stream(c);
  EXPECT_EQ(stream, whole) << c.name << ": stream " << describe(stream)
                           << " vs feed " << describe(whole);
  for (const auto& cuts : cut_sets(c.wire.size(), rng, random_sets)) {
    for (const bool in_place : {false, true}) {
      const Transcript t = by_feed(c, cuts, in_place);
      EXPECT_EQ(t, whole) << c.name << " with " << cuts.size() << " cuts"
                          << (in_place ? " in place: " : ": ") << describe(t)
                          << " vs " << describe(whole);
    }
  }
}

TEST(FrameParser, CorpusDecodesTheSameAtEverySplit) {
  SplitMix64 rng(7);
  for (const Case& c : build_corpus()) {
    SCOPED_TRACE(c.name);
    expect_invariant(c, rng, 8);
    // The unmutated corpus is well-formed except where it is not meant
    // to be.
    const bool bad = c.name.find("hello_in_response") != std::string::npos ||
                     c.name.find("accept_sent_to_server") !=
                         std::string::npos ||
                     c.name.find("unknown_flags") != std::string::npos ||
                     c.name.find("overflowing_vls") != std::string::npos ||
                     c.name.find("plain_stream_on_signed") !=
                         std::string::npos;
    EXPECT_EQ(by_feed(c, {}).ok, !bad) << describe(by_feed(c, {}));
  }
}

TEST(FrameParser, MutantsDecodeTheSameAtEverySplit) {
  const auto corpus = build_corpus();
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    SplitMix64 rng(seed ^ 0xB7C9);
    Case c = corpus[static_cast<std::size_t>(rng.next_below(corpus.size()))];
    c.wire = mutate(std::move(c.wire), rng);
    c.name += " seed " + std::to_string(seed);
    SCOPED_TRACE(c.name);
    expect_invariant(c, rng, 3);
    (by_feed(c, {}).ok ? accepted : rejected) += 1;
  }
  // Both sides of the decision must be exercised.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

// A 10-byte VLS can carry at most one bit in its last byte; anything past
// bit 63 is an overflow, rejected like vls_read rejects it — not wrapped
// into a short (here empty) content type.
TEST(FrameParser, OverflowingContentTypeVlsIsRejected) {
  const auto wire = overflowing_vls_frame();
  MemoryStream in;
  in.write_all(wire);
  EXPECT_THROW(read_frame(in), TransportError);
  FrameAssembler parser;
  EXPECT_THROW(parser.feed(wire), TransportError);
}

}  // namespace
}  // namespace bxsoap::transport
