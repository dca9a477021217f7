// Differential test of the two BXTP v2 chunk-stream writers: the event
// server's response stream and the client's ChunkedFrameWriter must put
// byte-identical streams on the wire for the same chunk sequence,
// negotiated transforms and key. An echo handler forwards a fixed request
// (compressible data, incompressible data, a patch chunk) and an empty
// one; the raw response bytes, captured off a v3 connection, are compared
// with what ChunkedFrameWriter<MemoryStream> writes for that sequence.
//
// ChunkStreamSession captures whole pipelined sessions the same way: a
// materialized call, a stream, and another call written back to back on
// one connection, with the stream echoed, refused before its first
// response chunk (the in-band v1 fault) or failing after it (the
// connection is cut). The expected bytes are built with the client-side
// writers. ChunkStreamSessionBig echoes data chunks of 256 KiB and more on
// a server with two reactors, so a stream that compresses or signs is
// served off the reactor that reads it. Every negotiation (none,
// compression, HMAC auth, both) runs on both server dispatch legs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "soap/encoding.hpp"
#include "soap/security.hpp"
#include "support/server_legs.hpp"
#include "transport/compress.hpp"
#include "transport/fault.hpp"
#include "transport/framing.hpp"
#include "transport/server.hpp"
#include "transport/stream.hpp"
#include "transport/v3_channel.hpp"

namespace bxsoap::transport {
namespace {

using namespace bxsoap::soap;

constexpr const char* kKey = "chunk-diff-key";

struct Negotiation {
  const char* name;
  std::uint8_t transforms;
  std::uint8_t auth;
};

constexpr Negotiation kNegotiations[] = {
    {"none", 0, 0},
    {"compress", transforms::kAll, 0},
    {"auth", 0, authalgs::kHmacSha256},
    {"both", transforms::kAll, authalgs::kHmacSha256},
};

/// The fixed request: one chunk lzss wins on, one it must ship plain.
std::vector<std::uint8_t> compressible(std::size_t bytes = 8192) {
  std::vector<std::uint8_t> out(bytes);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>("chunk stream "[i % 13]);
  }
  return out;
}

std::vector<std::uint8_t> incompressible(std::size_t bytes = 8192) {
  std::vector<std::uint8_t> out(bytes);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : out) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x >> 24);
  }
  return out;
}

std::vector<bxsa::PatchRecord> patches() {
  bxsa::PatchRecord p{};
  p.offset = 3;
  p.len = 4;
  for (std::uint8_t i = 0; i < p.len; ++i) p.bytes[i] = 0xC0 + i;
  return {p};
}

/// Write the `data` chunks, then the patch chunk if `patch`, through a
/// ChunkedFrameWriter armed for `transforms` and `auth`, then the
/// stream's close unless `finish` is false.
template <FrameStream S>
void write_chunks(S& out, std::uint8_t transforms, std::uint8_t auth,
                  const std::vector<std::vector<std::uint8_t>>& data,
                  bool patch, bool finish, std::string_view content_type) {
  BufferPool pool;
  std::unique_ptr<StreamAuthenticator> tx;
  ChunkedFrameWriter<S> w(out, content_type);
  if (transforms != 0) {
    w.set_compression({transforms, CompressPolicy{}, &pool, {}});
  }
  if (auth != 0) {
    tx = make_hmac_stream_auth(kKey).make(auth);
    w.set_auth(tx.get(), auth);
  }
  for (const auto& chunk : data) w.write_data(chunk);
  if (patch) w.write_patches(patches());
  if (finish) w.finish();
}

/// Write the first `chunks` of the sequence (compressible, incompressible,
/// patches), then the stream's close unless `finish` is false.
template <FrameStream S>
void write_sequence(S& out, std::uint8_t transforms, std::uint8_t auth,
                    std::size_t chunks, bool finish = true,
                    std::string_view content_type =
                        BxsaEncoding::content_type()) {
  std::vector<std::vector<std::uint8_t>> data;
  if (chunks > 0) data.push_back(compressible());
  if (chunks > 1) data.push_back(incompressible());
  write_chunks(out, transforms, auth, data, chunks > 2, finish, content_type);
}

/// The big-chunk request: data chunks of 256 KiB and more, compressible
/// and not, then the patch chunk. Each takes a full compress and MAC pass
/// of its own on the server's response side.
template <FrameStream S>
void write_big_sequence(S& out, std::uint8_t transforms, std::uint8_t auth,
                        std::string_view content_type =
                            BxsaEncoding::content_type()) {
  constexpr std::size_t kBig = 256 * 1024;
  write_chunks(out, transforms, auth,
               {compressible(kBig), incompressible(kBig),
                compressible(2 * kBig), incompressible(kBig)},
               /*patch=*/true, /*finish=*/true, content_type);
}

std::vector<std::uint8_t> expected_wire(std::uint8_t transforms,
                                        std::uint8_t auth, bool empty) {
  MemoryStream out;
  write_sequence(out, transforms, auth, empty ? 0 : 3);
  return out.read_exact(out.pending());
}

struct EchoStream final : StreamCallbacks {
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    out.write_chunk(std::move(chunk));
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
};

std::unique_ptr<StreamCallbacks> echo(const std::string&) {
  return std::make_unique<EchoStream>();
}

class ChunkStreamDiff
    : public ::testing::TestWithParam<std::tuple<ServerLeg, Negotiation>> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = [](SoapEnvelope env) { return env; };
    cfg.stream_handler = echo;
    cfg.compress_transforms = transforms::kAll;
    cfg.stream_auth = make_hmac_stream_auth(kKey);
    server_ = create_server(std::get<0>(GetParam()), std::move(cfg));
  }

  const Negotiation& negotiation() const { return std::get<1>(GetParam()); }

  /// One echo exchange on a hand-negotiated v3 connection; returns the
  /// response stream exactly as it came off the socket.
  std::vector<std::uint8_t> echoed_wire(bool empty) {
    TcpStream conn = TcpStream::connect(server_->port());
    conn.set_no_delay(true);
    conn.set_read_timeout(5000);
    HelloFrame hello;
    hello.transforms = negotiation().transforms;
    hello.auth = negotiation().auth;
    write_hello(conn, hello);
    const AcceptFrame accept = read_accept(conn);
    EXPECT_EQ(accept.version, kFrameVersionNegotiated);
    EXPECT_EQ(accept.transforms, negotiation().transforms);
    EXPECT_EQ(accept.auth, negotiation().auth);

    write_sequence(conn, accept.transforms, accept.auth, empty ? 0 : 3);

    // Parse the response as a client would, keeping every byte read.
    BufferPool pool;
    FrameAssembler parser({}, &pool);
    parser.set_transforms(accept.transforms);
    std::unique_ptr<StreamAuthenticator> rx;
    if (accept.auth != 0) {
      rx = make_hmac_stream_auth(kKey).make(accept.auth);
      parser.set_auth(rx.get(), accept.auth);
    }
    std::vector<std::uint8_t> wire;
    for (;;) {
      while (parser.need() != 0) {
        const std::size_t at = wire.size();
        wire.resize(at + parser.need());
        conn.read_exact(wire.data() + at, wire.size() - at);
        parser.feed(std::span<const std::uint8_t>(wire).subspan(at));
      }
      if (parser.take_chunk().kind == ChunkKind::kEnd) return wire;
    }
  }

  std::unique_ptr<SoapServer> server_;
};

}  // namespace

TEST_P(ChunkStreamDiff, EchoedSequenceMatchesChunkedFrameWriter) {
  const std::vector<std::uint8_t> want =
      expected_wire(negotiation().transforms, negotiation().auth, false);
  EXPECT_EQ(echoed_wire(false), want);
  if (negotiation().transforms != 0) {
    // The compressible chunk really went out compressed.
    EXPECT_LT(want.size(), expected_wire(0, negotiation().auth, false).size());
  }
}

TEST_P(ChunkStreamDiff, EmptyStreamMatchesChunkedFrameWriter) {
  EXPECT_EQ(echoed_wire(true),
            expected_wire(negotiation().transforms, negotiation().auth,
                          true));
}

INSTANTIATE_TEST_SUITE_P(
    LegsByNegotiation, ChunkStreamDiff,
    ::testing::Combine(::testing::Values(ServerLeg::kWorkerPool,
                                         ServerLeg::kInline),
                       ::testing::ValuesIn(kNegotiations)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == ServerLeg::kWorkerPool
                             ? "pool_"
                             : "event_") +
             std::get<1>(info.param).name;
    });

// ---- whole sessions ---------------------------------------------------------

namespace {

/// The request's content type picks what the session's stream handler does.
constexpr const char* kEchoType = "application/x-echo";
constexpr const char* kFailEarlyType = "application/x-fail-early";
constexpr const char* kFailLateType = "application/x-fail-late";

const Fault kEarlyFault{"soap:Client", "stream rejected", ""};

struct SessionStream final : StreamCallbacks {
  explicit SessionStream(const std::string& content_type)
      : type(content_type) {}
  void on_chunk(StreamChunk chunk, ResponseWriter& out) override {
    if (type == kFailEarlyType) {
      throw SoapFaultError(kEarlyFault.code, kEarlyFault.reason);
    }
    out.write_chunk(std::move(chunk));
    if (type == kFailLateType) {
      throw SoapFaultError("soap:Server", "failed mid-stream");
    }
  }
  void on_end(ResponseWriter& out) override { out.finish(); }
  std::string type;
};

std::unique_ptr<StreamCallbacks> session_stream(
    const std::string& content_type) {
  return std::make_unique<SessionStream>(content_type);
}

/// The materialized call: a small request the server's handler echoes.
std::vector<std::uint8_t> call_payload() {
  auto root = xdm::make_element(xdm::QName("urn:s", "ping", "s"));
  root->declare_namespace("s", "urn:s");
  root->add_child(xdm::make_leaf<std::int32_t>(xdm::QName("n"), 7));
  return BxsaEncoding{}.serialize(
      SoapEnvelope::wrap(std::move(root)).document());
}

class ChunkStreamSession
    : public ::testing::TestWithParam<std::tuple<ServerLeg, Negotiation>> {
 protected:
  void SetUp() override {
    ServerConfig cfg;
    cfg.encoding = AnyEncoding::from(BxsaEncoding{});
    cfg.handler = [](SoapEnvelope env) { return env; };
    cfg.stream_handler = session_stream;
    cfg.compress_transforms = transforms::kAll;
    cfg.stream_auth = make_hmac_stream_auth(kKey);
    configure(cfg);
    server_ = create_server(std::get<0>(GetParam()), std::move(cfg));

    conn_ = TcpStream::connect(server_->port());
    conn_.set_no_delay(true);
    conn_.set_read_timeout(5000);
    HelloFrame hello;
    hello.transforms = std::get<1>(GetParam()).transforms;
    hello.auth = std::get<1>(GetParam()).auth;
    write_hello(conn_, hello);
    const AcceptFrame accept = read_accept(conn_);
    ASSERT_EQ(accept.version, kFrameVersionNegotiated);
    terms_ = {{accept.dict_max_entries, accept.dict_max_bytes},
              accept.transforms,
              accept.auth};
    client_.emplace(terms_, endpoint_);
    mirror_.emplace(terms_, endpoint_);
  }

  virtual void configure(ServerConfig&) {}

  /// The call as a v3 Message frame, and its response as the server
  /// frames it (the next one through the mirrored send side).
  std::vector<std::uint8_t> call_frame() {
    ByteWriter w;
    client_->frame(w, call_payload(), BxsaEncoding::content_type());
    return w.take();
  }
  std::vector<std::uint8_t> response_frame() {
    BxsaEncoding enc;
    ByteWriter w;
    mirror_->frame(w, enc.serialize(*enc.deserialize(call_payload())),
                   BxsaEncoding::content_type());
    return w.take();
  }

  /// call, stream of `content_type`, call: written in one go.
  void write_session(std::string_view content_type) {
    MemoryStream out;
    out.write_all(call_frame());
    write_sequence(out, terms_.transforms, terms_.auth_algo(), 3, true,
                   content_type);
    out.write_all(call_frame());
    conn_.write_all(out.read_exact(out.pending()));
  }

  std::unique_ptr<SoapServer> server_;
  TcpStream conn_;
  V3Terms terms_;
  V3Endpoint endpoint_;
  std::optional<V3Channel> client_;
  std::optional<V3Channel> mirror_;
};

/// Sessions on a server that admits one request per connection in flight
/// and one queued: a stream counts against neither bound.
class ChunkStreamSessionLimits : public ChunkStreamSession {
 protected:
  void configure(ServerConfig& cfg) override {
    cfg.max_inflight_per_conn = 1;
    cfg.max_queue_depth = 1;
  }
};

}  // namespace

TEST_P(ChunkStreamSession, PipelinedCallStreamCallKeepOrder) {
  write_session(kEchoType);
  std::vector<std::uint8_t> want = response_frame();
  const std::vector<std::uint8_t> stream =
      expected_wire(terms_.transforms, terms_.auth_algo(), false);
  want.insert(want.end(), stream.begin(), stream.end());
  const std::vector<std::uint8_t> second = response_frame();
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(conn_.read_exact(want.size()), want);
}

TEST_P(ChunkStreamSession, FailureBeforeFirstChunkAnswersInBand) {
  write_session(kFailEarlyType);
  std::vector<std::uint8_t> want = response_frame();
  {
    // The fault rides as a v1 frame in the stream's slot.
    ByteWriter fault;
    const std::size_t len_pos =
        begin_frame(fault, BxsaEncoding::content_type());
    BxsaEncoding{}.serialize_into(
        SoapEnvelope::make_fault(kEarlyFault).document(), fault);
    end_frame(fault, len_pos);
    want.insert(want.end(), fault.bytes().begin(), fault.bytes().end());
  }
  const std::vector<std::uint8_t> second = response_frame();
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(conn_.read_exact(want.size()), want);
}

TEST_P(ChunkStreamSession, FailureAfterFirstChunkCutsTheConnection) {
  // The first call is answered before the session goes on, so its bytes
  // are delivered whatever the cut does to the rest.
  conn_.write_all(call_frame());
  const std::vector<std::uint8_t> first = response_frame();
  EXPECT_EQ(conn_.read_exact(first.size()), first);

  MemoryStream out;
  write_sequence(out, terms_.transforms, terms_.auth_algo(), 3, true,
                 kFailLateType);
  out.write_all(call_frame());
  conn_.write_all(out.read_exact(out.pending()));

  // At most the frames staged before the failure (the stream header and
  // the first echoed chunk) arrive, then the connection ends: no End, no
  // response to the call behind the stream.
  MemoryStream staged;
  write_sequence(staged, terms_.transforms, terms_.auth_algo(), 1, false);
  const std::vector<std::uint8_t> most = staged.read_exact(staged.pending());
  std::vector<std::uint8_t> got;
  bool ended = false;
  try {
    std::uint8_t buf[4096];
    while (got.size() <= most.size()) {
      const std::size_t n = conn_.read_some(buf, sizeof(buf));
      if (n == 0) break;
      got.insert(got.end(), buf, buf + n);
    }
    ended = got.size() <= most.size();
  } catch (const TransportError& e) {
    ended = std::string_view(e.what()) != "read timed out";  // a reset
  }
  EXPECT_TRUE(ended) << "the connection must be cut";
  ASSERT_LE(got.size(), most.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), most.begin()));
}

/// Sessions on a server with two reactors, so an inline stream that
/// compresses or signs is served off the reactor that reads it.
class ChunkStreamSessionBig : public ChunkStreamSession {
 protected:
  void configure(ServerConfig& cfg) override { cfg.reactor_threads = 2; }
};

TEST_P(ChunkStreamSessionBig, BigChunksKeepOrderAndBytes) {
  MemoryStream out;
  out.write_all(call_frame());
  write_big_sequence(out, terms_.transforms, terms_.auth_algo(), kEchoType);
  out.write_all(call_frame());
  const std::vector<std::uint8_t> session = out.read_exact(out.pending());

  std::vector<std::uint8_t> want = response_frame();
  MemoryStream echoed;
  write_big_sequence(echoed, terms_.transforms, terms_.auth_algo());
  const std::vector<std::uint8_t> stream = echoed.read_exact(echoed.pending());
  want.insert(want.end(), stream.begin(), stream.end());
  const std::vector<std::uint8_t> second = response_frame();
  want.insert(want.end(), second.begin(), second.end());

  // The session is written from its own thread while this one reads, so
  // neither side's socket buffers can wedge the exchange.
  std::thread writer([&] {
    try {
      conn_.write_all(session);
    } catch (const TransportError&) {
      // A cut shows as short or wrong bytes below.
    }
  });
  std::vector<std::uint8_t> got;
  try {
    got = conn_.read_exact(want.size());
  } catch (const TransportError& e) {
    ADD_FAILURE() << "reading the session: " << e.what();
    conn_.shutdown_both();  // unblock the writer
  }
  writer.join();
  EXPECT_EQ(got, want);
}

TEST_P(ChunkStreamSessionLimits, CallBehindAStreamIsNotShed) {
  // The first call is answered before the stream starts, so the call
  // behind the stream is the only request in flight.
  conn_.write_all(call_frame());
  const std::vector<std::uint8_t> first = response_frame();
  EXPECT_EQ(conn_.read_exact(first.size()), first);

  MemoryStream out;
  write_sequence(out, terms_.transforms, terms_.auth_algo(), 3, true,
                 kEchoType);
  out.write_all(call_frame());
  conn_.write_all(out.read_exact(out.pending()));
  std::vector<std::uint8_t> want =
      expected_wire(terms_.transforms, terms_.auth_algo(), false);
  const std::vector<std::uint8_t> second = response_frame();
  want.insert(want.end(), second.begin(), second.end());
  EXPECT_EQ(conn_.read_exact(want.size()), want);
}

// Both bounds are the worker pool's: inline, a connection never has a
// second request in flight.
INSTANTIATE_TEST_SUITE_P(
    LegsByNegotiation, ChunkStreamSessionLimits,
    ::testing::Combine(::testing::Values(ServerLeg::kWorkerPool),
                       ::testing::ValuesIn(kNegotiations)),
    [](const auto& info) {
      return std::string("pool_") + std::get<1>(info.param).name;
    });

INSTANTIATE_TEST_SUITE_P(
    LegsByNegotiation, ChunkStreamSessionBig,
    ::testing::Combine(::testing::Values(ServerLeg::kWorkerPool,
                                         ServerLeg::kInline),
                       ::testing::ValuesIn(kNegotiations)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == ServerLeg::kWorkerPool
                             ? "pool_"
                             : "event_") +
             std::get<1>(info.param).name;
    });

INSTANTIATE_TEST_SUITE_P(
    LegsByNegotiation, ChunkStreamSession,
    ::testing::Combine(::testing::Values(ServerLeg::kWorkerPool,
                                         ServerLeg::kInline),
                       ::testing::ValuesIn(kNegotiations)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == ServerLeg::kWorkerPool
                             ? "pool_"
                             : "event_") +
             std::get<1>(info.param).name;
    });

}  // namespace bxsoap::transport
