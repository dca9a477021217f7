// SOAP-over-raw-TCP message framing.
//
// The paper's TCP binding "will just dump the serialization directly to a
// TCP connection"; a receiver still needs to know where one message ends,
// so we put a minimal frame around each message:
//
//   magic   "BXTP"            4 bytes
//   version u8                (1)
//   ctype   VLS len + bytes   content type declared by the encoding policy
//   length  u64 big-endian    payload byte count
//   payload
//
// One parser decodes every BXTP version: FrameAssembler, a push parser
// over byte buffers with no I/O. The reactor feeds it what a socket read
// returned, TcpClientBinding feeds it a buffered connection, and the
// blocking drivers at the bottom of this file (read_frame, read_accept, ...)
// read exactly the bytes it asks for from any FrameStream (TcpStream, the
// fault injector's FaultyStream, the in-memory MemoryStream), so the same
// framing code is exercised on real sockets and in deterministic
// no-socket tests.
//
// One encoder writes every v2 chunk stream: ChunkEncoder, the sans-IO
// mirror of FrameAssembler, whose frames ChunkedFrameWriter writes to a
// FrameStream and the event server queues for its reactor.
//
// Reading is defensive: the declared lengths come from the peer, so every
// one is checked against FrameLimits BEFORE any allocation sized by it. A
// corrupt or hostile length field costs a TransportError, not a multi-GB
// allocation.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bxsa/dict.hpp"
#include "bxsa/stream_writer.hpp"
#include "common/buffer.hpp"
#include "common/buffer_pool.hpp"
#include "common/hmac_sha256.hpp"
#include "common/vls.hpp"
#include "soap/binding.hpp"
#include "transport/auth.hpp"
#include "transport/compress.hpp"
#include "transport/socket.hpp"

namespace bxsoap::transport {

inline constexpr char kFrameMagic[4] = {'B', 'X', 'T', 'P'};
inline constexpr std::uint8_t kFrameVersion = 1;
/// BXTP v2: a chunked transfer, for messages produced and consumed in
/// bounded memory. Same magic + ctype header, then chunk frames instead of
/// one length-prefixed payload (see docs/FORMAT.md "Chunked transfer").
inline constexpr std::uint8_t kFrameVersionChunked = 2;
/// BXTP v3: negotiated connection state (docs/FORMAT.md "BXTP v3"). After
/// magic + version every v3 frame carries a kind byte: a client opens with
/// one Hello, the server answers with one Accept, and from then on both
/// directions exchange Message frames whose flags byte says whether the
/// payload went through the per-channel symbol dictionary. A v2/v1 peer
/// simply never sends version 3 (old clients are served exactly as before),
/// and an old server kills the connection on the Hello's unknown version —
/// the probe failure a v3 client detects to fall back permanently.
inline constexpr std::uint8_t kFrameVersionNegotiated = 3;

/// Kind byte of a v3 frame.
enum class V3FrameKind : std::uint8_t {
  kHello = 0,    ///< client → server: version range + offered dict limits
  kAccept = 1,   ///< server → client: chosen version + effective limits
  kMessage = 2,  ///< either direction: flags u8, then a v1-shaped body
};

/// Message-frame flags (v3 only).
namespace v3flags {
/// The payload is dictionary-coded BXSA (bxsa::dict_encode output); the
/// receiver must run it through its mirrored table before decoding.
inline constexpr std::uint8_t kDictEncoded = 0x01;
/// The sender reset its dictionary before encoding this message; the
/// receiver clears the mirrored table first (an epoch change).
inline constexpr std::uint8_t kDictReset = 0x02;
/// The payload is a compressed body (transport/compress.hpp): a leading
/// transform-id byte, then the transformed bytes. Decompression runs
/// before dictionary decoding (the inverse of the encode order). Only
/// legal on a connection whose handshake negotiated a non-empty
/// transform set.
inline constexpr std::uint8_t kCompressed = 0x04;
inline constexpr std::uint8_t kAllKnown =
    kDictEncoded | kDictReset | kCompressed;
}  // namespace v3flags

/// Hello body: 2 version bytes + each side's dictionary-table offer + the
/// compression transform set the sender is willing to speak + the stream
/// authentication algorithms it can sign/verify with. The effective table
/// is the element-wise minimum of both offers and the effective transform
/// and auth sets are the intersections, so the two sides agree without a
/// second round trip.
struct HelloFrame {
  std::uint8_t min_version = kFrameVersion;
  std::uint8_t max_version = kFrameVersionNegotiated;
  std::uint32_t dict_max_entries = 0;
  std::uint32_t dict_max_bytes = 0;
  std::uint8_t transforms = 0;  ///< transforms:: bitmask offered
  std::uint8_t auth = 0;        ///< authalgs:: bitmask offered
};

/// Accept body: the version the server chose plus the effective limits.
struct AcceptFrame {
  std::uint8_t version = kFrameVersionNegotiated;
  std::uint32_t dict_max_entries = 0;
  std::uint32_t dict_max_bytes = 0;
  std::uint8_t transforms = 0;  ///< client offer ∩ server offer
  std::uint8_t auth = 0;        ///< client offer ∩ server offer
};

/// Default payload ceiling: generous for scientific datasets, small enough
/// that a corrupt length prefix cannot take the process down.
inline constexpr std::size_t kDefaultMaxMessageBytes = 256u << 20;  // 256 MiB
/// Per-chunk ceiling on the v2 path — this is the unit of buffering, so it
/// bounds receiver residency, not message size.
inline constexpr std::size_t kDefaultMaxChunkBytes = 8u << 20;  // 8 MiB
/// Whole-stream ceiling on the v2 path (sum of data chunks).
inline constexpr std::size_t kDefaultMaxStreamBytes = 1u << 30;  // 1 GiB

/// Ceilings applied while parsing an incoming frame. Every field is
/// enforced before the corresponding bytes are read or allocated.
struct FrameLimits {
  std::size_t max_message_bytes = kDefaultMaxMessageBytes;
  std::size_t max_content_type_bytes = 1024;
  std::size_t max_chunk_bytes = kDefaultMaxChunkBytes;
  std::size_t max_stream_bytes = kDefaultMaxStreamBytes;
};

/// Chunk frame kinds on the v2 path. Wire layout of every chunk:
/// kind u8, length u64 big-endian, then `length` body bytes.
enum class ChunkKind : std::uint8_t {
  kData = 0,   ///< body appends to the message payload
  kPatch = 1,  ///< body is PatchRecords fixing up already-sent payload bytes
  kEnd = 2,    ///< body is the u64 BE total payload byte count; closes the
               ///< stream
  kCompressedData = 3,  ///< a kData body behind a compressed-body wrapper
                        ///< (transform id + transformed bytes); only legal
                        ///< after a handshake negotiated a transform set.
                        ///< The end chunk's total counts the DECOMPRESSED
                        ///< bytes, so reassembly is byte-identical.
  kAuth = 4,  ///< authentication trailer: algo u8 + fixed-size tag over the
              ///< stream's LOGICAL chunk sequence (docs/FORMAT.md §"Auth
              ///< trailer"). Only legal after a handshake negotiated an
              ///< auth algorithm; must precede the end chunk. Verified by
              ///< the framing layer and never surfaced to consumers.
};

/// Largest tag any authalgs:: algorithm produces (HMAC-SHA-256), so the
/// framing layer can verify with stack buffers.
inline constexpr std::size_t kMaxAuthTagBytes = 32;

/// Absorb one logical chunk into a stream authenticator. The MAC input is
/// canonical and chunking-explicit: the logical kind byte (kData for both
/// plain and compressed data — compression is invisible to the MAC),
/// the u64 BE logical body length, then the logical (plaintext) body.
/// Sender absorbs before compression, receiver after decompression, so
/// both see identical input regardless of what the wire carried. The
/// body's bytes are tallied into `stats`.
inline void auth_absorb_chunk(StreamAuthenticator& a, ChunkKind logical_kind,
                              std::span<const std::uint8_t> body,
                              const AuthStats& stats = {}) {
  std::uint8_t hdr[9];
  hdr[0] = static_cast<std::uint8_t>(logical_kind);
  store<std::uint64_t>(body.size(), ByteOrder::kBig, hdr + 1);
  a.update({hdr, sizeof(hdr)});
  a.update(body);
  if (stats.bytes_authenticated != nullptr) {
    stats.bytes_authenticated->add(body.size());
  }
}

/// Close the MAC input with the u64 BE total of logical data bytes (the
/// same number the end chunk carries) and produce the tag.
inline void auth_finalize_tag(StreamAuthenticator& a, std::uint64_t total,
                              std::span<std::uint8_t> tag_out) {
  std::uint8_t total_be[8];
  store<std::uint64_t>(total, ByteOrder::kBig, total_be);
  a.update({total_be, sizeof(total_be)});
  a.finalize(tag_out);
}

/// One received chunk. For kEnd the payload total has already been decoded
/// and verified by the reader; `bytes` is empty.
struct StreamChunk {
  ChunkKind kind = ChunkKind::kData;
  std::vector<std::uint8_t> bytes;
};

/// Wire-encode patch records into `w`: offset u64 BE, len u8, bytes.
inline void encode_patch_records(ByteWriter& w,
                                 std::span<const bxsa::PatchRecord> patches) {
  for (const auto& p : patches) {
    w.write<std::uint64_t>(p.offset, ByteOrder::kBig);
    w.write_u8(p.len);
    w.write_bytes(p.bytes, p.len);
  }
}

/// Decode a patch-chunk body. Throws TransportError on a malformed record
/// (truncation, zero or oversized len).
inline std::vector<bxsa::PatchRecord> decode_patch_records(
    std::span<const std::uint8_t> body) {
  std::vector<bxsa::PatchRecord> out;
  ByteReader r(body);
  try {
    while (!r.at_end()) {
      bxsa::PatchRecord p;
      p.offset = r.read<std::uint64_t>(ByteOrder::kBig);
      p.len = r.read_u8();
      if (p.len == 0 || p.len > sizeof(p.bytes)) {
        throw TransportError("patch record with bad length");
      }
      const auto bytes = r.read_bytes(p.len);
      std::memcpy(p.bytes, bytes.data(), p.len);
      out.push_back(p);
    }
  } catch (const DecodeError&) {
    throw TransportError("truncated patch record");
  }
  return out;
}

/// Apply patch records to a reassembled payload. Every target must lie
/// fully inside the payload; a hostile offset throws instead of writing.
inline void apply_patches(std::span<std::uint8_t> payload,
                          std::span<const bxsa::PatchRecord> patches) {
  for (const auto& p : patches) {
    if (p.len > sizeof(p.bytes) || p.offset > payload.size() ||
        p.len > payload.size() - p.offset) {
      throw TransportError("patch record outside the payload");
    }
    std::memcpy(payload.data() + p.offset, p.bytes, p.len);
  }
}

/// Any byte stream framing can run over: whole-buffer writes and exact
/// reads, both throwing TransportError on failure.
template <typename S>
concept FrameStream = requires(S& s, std::span<const std::uint8_t> out,
                               std::uint8_t* in, std::size_t n) {
  s.write_all(out);
  s.read_exact(in, n);
};

/// Streams that can additionally gather buffers into one syscall
/// (TcpStream via sendmsg). Test streams (MemoryStream, FaultyStream) stay
/// plain FrameStreams, so their byte-offset-deterministic fault injection
/// is unchanged.
template <typename S>
concept VectoredStream =
    FrameStream<S> &&
    requires(S& s, std::span<const std::span<const std::uint8_t>> bufs) {
      s.write_vectored(bufs);
    };

/// Append a frame header up to its payload length (v1/v3) or its first
/// chunk (v2): magic, `version`, on v3 the Message kind and `flags`, then
/// the content type.
inline void write_header(ByteWriter& w, std::uint8_t version,
                         std::string_view content_type,
                         std::uint8_t flags = 0) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(version);
  if (version == kFrameVersionNegotiated) {
    w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kMessage));
    w.write_u8(flags);
  }
  vls_write(w, content_type.size());
  w.write_string(content_type);
}

/// Append the frame header for `content_type` to `w`, reserving the 8-byte
/// payload-length field as zeros. Returns the length field's offset in `w`;
/// pass it to end_frame once the payload has been appended. This is how an
/// encoder emits header + payload into ONE buffer, sent with one write_all.
inline std::size_t begin_frame(ByteWriter& w, std::string_view content_type) {
  write_header(w, kFrameVersion, content_type);
  const std::size_t len_pos = w.size();
  w.write_padding(8);
  return len_pos;
}

/// Backpatch the payload length: everything appended after begin_frame
/// returned `len_pos` is the payload.
inline void end_frame(ByteWriter& w, std::size_t len_pos) {
  std::uint8_t len_be[8];
  store<std::uint64_t>(w.size() - len_pos - 8, ByteOrder::kBig, len_be);
  w.patch_bytes(len_pos, len_be, sizeof(len_be));
}

/// v3 variant of begin_frame: same reserved length field, but the header
/// is a v3 Message frame carrying `flags`.
inline std::size_t begin_frame_v3(ByteWriter& w, std::uint8_t flags,
                                  std::string_view content_type) {
  write_header(w, kFrameVersionNegotiated, content_type, flags);
  const std::size_t len_pos = w.size();
  w.write_padding(8);
  return len_pos;
}

/// Append one canonical payload as a complete v3 Message frame, running it
/// through the channel's dictionary when one was negotiated (`dict`
/// engaged). The DICT_RESET flag cannot be known until the encoder has
/// decided on an epoch change, so the flags byte (a fixed offset 6 into
/// the frame: magic + version + kind) is patched afterwards — the frame
/// still leaves as one buffer, one write.
/// When the handshake negotiated a transform set (`transforms` non-zero,
/// `pool` given) the dictionary-coded bytes are additionally offered to
/// the adaptive compressor: it compresses into a pooled scratch buffer
/// and the frame keeps whichever body is smaller, with the kCompressed
/// flag patched in alongside DICT_RESET.
inline void frame_v3_payload(ByteWriter& out,
                             std::span<const std::uint8_t> payload,
                             std::string_view content_type,
                             std::optional<bxsa::DictEncoder>& dict,
                             const bxsa::DictStats& stats = {},
                             std::uint8_t transforms = 0,
                             const CompressPolicy& policy = {},
                             BufferPool* pool = nullptr,
                             const CompressStats& cstats = {}) {
  const std::size_t base = out.size();
  std::uint8_t flags = dict ? v3flags::kDictEncoded : 0;
  const std::size_t len_pos = begin_frame_v3(out, flags, content_type);
  const std::size_t payload_start = out.size();
  if (dict) {
    if (dict->encode(payload, out, stats)) flags |= v3flags::kDictReset;
  } else {
    out.write_bytes(payload);
  }
  if (transforms != 0 && pool != nullptr) {
    const auto body = out.bytes().subspan(payload_start);
    std::vector<std::uint8_t> packed = pool->acquire(body.size());
    if (compress_append(body, transforms, policy, *pool, packed, cstats) !=
        Transform::kNone) {
      out.truncate(payload_start);
      out.write_bytes(packed);
      flags |= v3flags::kCompressed;
    }
    pool->release(std::move(packed));
  }
  end_frame(out, len_pos);
  // magic + version + kind = fixed offset 6 of the flags byte.
  out.patch_bytes(base + 4 + 1 + 1, &flags, 1);
}

/// Append the magic, version and kind that open a v3 Hello or Accept.
inline void write_control_header(ByteWriter& w, V3FrameKind kind) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(kind));
}

/// Append one whole Hello frame (magic + version + kind + body).
inline void encode_hello(ByteWriter& w, const HelloFrame& h) {
  write_control_header(w, V3FrameKind::kHello);
  w.write_u8(h.min_version);
  w.write_u8(h.max_version);
  w.write<std::uint32_t>(h.dict_max_entries, ByteOrder::kBig);
  w.write<std::uint32_t>(h.dict_max_bytes, ByteOrder::kBig);
  w.write_u8(h.transforms);
  w.write_u8(h.auth);
}

/// Append one whole Accept frame (magic + version + kind + body).
inline void encode_accept(ByteWriter& w, const AcceptFrame& a) {
  write_control_header(w, V3FrameKind::kAccept);
  w.write_u8(a.version);
  w.write<std::uint32_t>(a.dict_max_entries, ByteOrder::kBig);
  w.write<std::uint32_t>(a.dict_max_bytes, ByteOrder::kBig);
  w.write_u8(a.transforms);
  w.write_u8(a.auth);
}

template <FrameStream S>
void write_hello(S& stream, const HelloFrame& h) {
  ByteWriter w;
  encode_hello(w, h);
  stream.write_all(w.bytes());
}

/// Write one framed message to the stream. The content type is taken as a
/// view so callers that hold the encoding policy's static string (e.g.
/// AnyEncoding::content_type()) pass it straight through with no copy.
/// Streams that support it get header + payload in one gathered syscall;
/// the rest keep the two-write behavior.
template <FrameStream S>
void write_frame(S& stream, std::string_view content_type,
                 std::span<const std::uint8_t> payload) {
  ByteWriter header;
  write_header(header, kFrameVersion, content_type);
  header.write<std::uint64_t>(payload.size(), ByteOrder::kBig);
  if constexpr (VectoredStream<S>) {
    const std::span<const std::uint8_t> parts[] = {header.bytes(), payload};
    stream.write_vectored(parts);
  } else {
    stream.write_all(header.bytes());
    stream.write_all(payload);
  }
}

template <FrameStream S>
void write_frame(S& stream, const soap::WireMessage& m) {
  write_frame(stream, m.content_type, m.payload);
}

/// Write one v1 frame whose payload still borrows runs from its envelope
/// (soap::GatherMessage): the header, the framing bytes and the runs leave
/// in gathered syscalls, the runs straight from where they live.
template <VectoredStream S>
void write_frame(S& stream, const soap::GatherMessage& m) {
  ByteWriter header;
  write_header(header, kFrameVersion, m.content_type);
  header.write<std::uint64_t>(m.payload_size(), ByteOrder::kBig);
  std::vector<std::span<const std::uint8_t>> parts;
  parts.reserve(2 + 2 * m.runs.size());
  parts.push_back(header.bytes());
  for_each_piece(m.framing, m.runs,
                 [&](std::span<const std::uint8_t> p) { parts.push_back(p); });
  stream.write_vectored(parts);
}

/// The per-direction compression setup a negotiated connection hands its
/// ChunkEncoders: the intersection transform set from the handshake plus
/// the adaptive policy and the pool compressed bodies are built in.
struct ChunkCompression {
  std::uint8_t transforms = 0;  ///< 0 = never compress
  CompressPolicy policy{};
  BufferPool* pool = nullptr;
  CompressStats stats{};
};

/// One piece of a v2 stream as ChunkEncoder hands it to a driver, written
/// in order: head(), then body. A chunk frame's head is its 9-byte chunk
/// header (kind u8, body length u64 big-endian); the stream header rides
/// as a bare body with an empty head.
struct ChunkFrame {
  std::array<std::uint8_t, 9> hdr{};
  std::size_t hdr_size = 0;
  std::vector<std::uint8_t> body;

  std::span<const std::uint8_t> head() const noexcept {
    return {hdr.data(), hdr_size};
  }
};

/// The write side of a v2 chunked transfer with no I/O, the mirror of
/// FrameAssembler. It owns the stream's write state — adaptive per-chunk
/// compression, the authenticator signing the logical chunk sequence, the
/// logical data total the end chunk carries, whether the header went out —
/// and turns each chunk into frames it hands to `emit` (any callable
/// taking ChunkFrame&&). The stream header goes out just ahead of the
/// first chunk frame, unless start() sent it earlier. Bodies move through: a chunk that compresses recycles its plain buffer
/// into the compression pool.
class ChunkEncoder {
 public:
  explicit ChunkEncoder(std::string_view content_type)
      : content_type_(content_type) {}

  /// Arm adaptive per-chunk compression (negotiated connections only).
  void set_compression(const ChunkCompression& c) { compression_ = c; }

  /// Arm stream authentication (negotiated connections only): every data
  /// and patch chunk is absorbed into `auth` BEFORE compression, so the
  /// tag covers the plaintext order, and finish() emits the Auth trailer
  /// ahead of the end chunk. `auth` must outlive the encoder.
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    auth_ = auth;
    auth_algo_ = algo;
    auth_stats_ = stats;
    if (auth_ != nullptr) auth_->init();
  }

  /// True once the stream header has been emitted.
  bool started() const noexcept { return started_; }

  /// Emit the stream header now, if it has not gone out yet.
  template <typename Emit>
  void start(Emit&& emit) {
    if (started_) return;
    started_ = true;
    ByteWriter h;
    write_header(h, kFrameVersionChunked, content_type_);
    emit(ChunkFrame{{}, 0, h.take()});
  }

  /// Encode one data or patch chunk (the only kinds a producer writes).
  /// A data chunk that compresses goes out as kCompressedData; the end
  /// chunk still totals its logical (plain) size.
  template <typename Emit>
  void chunk(StreamChunk c, Emit&& emit) {
    start(emit);
    if (auth_ != nullptr) {
      auth_absorb_chunk(*auth_, c.kind, c.bytes, auth_stats_);
    }
    if (c.kind == ChunkKind::kData) {
      total_ += c.bytes.size();
      if (compression_.transforms != 0 && compression_.pool != nullptr) {
        BufferPool& pool = *compression_.pool;
        std::vector<std::uint8_t> packed = pool.acquire(c.bytes.size());
        if (compress_append(c.bytes, compression_.transforms,
                            compression_.policy, pool, packed,
                            compression_.stats) != Transform::kNone) {
          std::swap(c.bytes, packed);
          c.kind = ChunkKind::kCompressedData;
        }
        pool.release(std::move(packed));
      }
    }
    emit(frame(c.kind, std::move(c.bytes)));
  }

  /// Close the stream: on an authenticated stream the Auth trailer (algo
  /// byte + tag over the logical chunk sequence), then the end chunk
  /// carrying the data-byte total.
  template <typename Emit>
  void finish(Emit&& emit) {
    start(emit);
    if (auth_ != nullptr) {
      std::vector<std::uint8_t> trailer(1 + auth_->tag_size());
      trailer[0] = auth_algo_;
      auth_finalize_tag(*auth_, total_,
                        std::span<std::uint8_t>(trailer).subspan(1));
      emit(frame(ChunkKind::kAuth, std::move(trailer)));
    }
    std::vector<std::uint8_t> total_be(8);
    store<std::uint64_t>(total_, ByteOrder::kBig, total_be.data());
    emit(frame(ChunkKind::kEnd, std::move(total_be)));
  }

 private:
  static ChunkFrame frame(ChunkKind kind, std::vector<std::uint8_t> body) {
    ChunkFrame f{{}, 9, std::move(body)};
    f.hdr[0] = static_cast<std::uint8_t>(kind);
    store<std::uint64_t>(f.body.size(), ByteOrder::kBig, f.hdr.data() + 1);
    return f;
  }

  std::string content_type_;
  ChunkCompression compression_{};
  StreamAuthenticator* auth_ = nullptr;
  std::uint8_t auth_algo_ = 0;
  AuthStats auth_stats_{};
  std::uint64_t total_ = 0;
  bool started_ = false;
};

/// Blocking driver of a ChunkEncoder: writes the header at construction,
/// then each frame as it is encoded, in one gathered syscall on streams
/// that support it. Bodies recycle into `pool` once written, when given.
template <FrameStream S>
class ChunkedFrameWriter {
 public:
  ChunkedFrameWriter(S& stream, std::string_view content_type,
                     BufferPool* pool = nullptr)
      : stream_(stream), pool_(pool), encoder_(content_type) {
    encoder_.start(put());
  }

  void set_compression(const ChunkCompression& c) {
    encoder_.set_compression(c);
  }
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    encoder_.set_auth(auth, algo, stats);
  }

  /// Send one data or patch chunk, taking its buffer.
  void write(StreamChunk c) { encoder_.chunk(std::move(c), put()); }

  void write_data(std::span<const std::uint8_t> chunk) {
    write({ChunkKind::kData, {chunk.begin(), chunk.end()}});
  }

  void write_patches(std::span<const bxsa::PatchRecord> patches) {
    if (patches.empty()) return;
    ByteWriter body;
    encode_patch_records(body, patches);
    write({ChunkKind::kPatch, body.take()});
  }

  void finish() { encoder_.finish(put()); }

 private:
  auto put() {
    return [this](ChunkFrame f) {
      if constexpr (VectoredStream<S>) {
        const std::span<const std::uint8_t> parts[] = {f.head(), f.body};
        stream_.write_vectored(parts);
      } else {
        stream_.write_all(f.head());
        stream_.write_all(f.body);
      }
      if (pool_ != nullptr) pool_->release(std::move(f.body));
    };
  }

  S& stream_;
  BufferPool* pool_;
  ChunkEncoder encoder_;
};

/// The BXTP decoder for every version — v1 frames, v2 chunked streams, v3
/// Hello, Accept and Message frames — as a push parser with no I/O. feed()
/// consumes up to one frame (v1/v3), chunk (v2) or Hello/Accept and parks
/// until the caller takes it. Every peer-declared length is checked
/// against FrameLimits BEFORE the allocation it sizes. Malformed or
/// over-limit input throws TransportError and poisons the parser: a byte
/// stream cannot be resynchronized. Which control frames a role may take
/// is the caller's check; take() refuses both where a message belongs.
class FrameAssembler {
 public:
  explicit FrameAssembler(FrameLimits limits = {}, BufferPool* pool = nullptr,
                          bool accept_v3 = false)
      : limits_(limits), pool_(pool), accept_v3_(accept_v3) {}

  /// Admit kCompressedData chunks (a negotiated transform set); they
  /// decompress on take and surface as plain kData chunks. v3 kCompressed
  /// MESSAGE payloads are V3Channel::unframe's job (v3_channel.hpp).
  void set_transforms(std::uint8_t transforms) { transforms_ = transforms; }

  /// Require and verify an Auth trailer on every chunked stream (a
  /// negotiated auth algorithm). Taken chunks are absorbed in wire order;
  /// the trailer is verified as it completes, before End can assemble, and
  /// never surfaces. `auth` outlives the parser; it is re-init()'d per stream.
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    auth_ = auth;
    auth_algo_ = algo;
    auth_stats_ = stats;
  }

  /// Consume bytes from the front of `data` until an item completes or the
  /// input runs out; returns the number consumed.
  std::size_t feed(std::span<const std::uint8_t> data) {
    std::size_t consumed = 0;
    while (consumed < data.size() && need() != 0) {
      consumed += step(data.subspan(consumed));
    }
    return consumed;
  }

  /// Bytes the current field still wants; 0 while a completed item waits
  /// to be taken. A reader that reads exactly this many never reads past
  /// the frame being parsed.
  std::size_t need() const noexcept {
    if (state_ == State::kCtBytes) {
      return ct_len_ - message_.content_type.size();
    }
    if (in_body()) return body_len_ - filled_;
    return kFieldBytes[static_cast<std::size_t>(state_)] - have_;
  }

  /// Read-into-place window: the next min(max, need()) bytes of a payload
  /// or chunk body, in the buffer take()/take_chunk() hand out (empty
  /// outside a body); commit() what was written. A recycled buffer is
  /// overwritten where it already reaches, without a fill; past that the
  /// buffer grows only as far as windows reach, so a peer that stalls pins
  /// no more than one. Bytes past the committed ones are never handed out:
  /// a body is taken only once all body_len_ bytes were received.
  std::span<std::uint8_t> body_space(std::size_t max) {
    if (!in_body()) return {};
    std::vector<std::uint8_t>& b = body();
    const std::size_t end = filled_ + std::min(max, need());
    if (b.size() < end) b.resize(end);
    return {b.data() + filled_, end - filled_};
  }

  void commit(std::size_t n) {
    filled_ += n;
    if (filled_ < body_len_) return;
    if (state_ == State::kPayload) {
      state_ = State::kReady;
    } else {
      complete_chunk();
    }
  }

  bool ready() const noexcept { return state_ == State::kReady; }
  bool chunk_ready() const noexcept { return state_ == State::kChunkReady; }
  bool hello_ready() const noexcept { return state_ == State::kHelloReady; }
  bool accept_ready() const noexcept { return state_ == State::kAcceptReady; }

  /// True where a body begins — at a v1/v3 payload length or a v2 chunk
  /// header — with the whole header parsed and nothing of the body.
  bool at_body() const noexcept {
    return (state_ == State::kLen || state_ == State::kChunkHdr) && have_ == 0;
  }

  /// True between the first byte of a frame and its completion — the
  /// window a slowloris peer stalls in, chunk gaps of a v2 stream included.
  bool mid_frame() const noexcept {
    return state_ != State::kReady && state_ != State::kHelloReady &&
           state_ != State::kAcceptReady &&
           !(state_ == State::kFixed && have_ == 0);
  }

  /// Version and flags of the frame last parsed (flags are 0 on v1/v2).
  std::uint8_t frame_version() const noexcept { return version_; }
  std::uint8_t frame_flags() const noexcept { return flags_; }

  /// True from a v2 header until its end chunk is taken; the stream's
  /// content type stays readable that long.
  bool streaming() const noexcept { return streaming_; }
  const std::string& stream_content_type() const noexcept {
    return message_.content_type;
  }

  HelloFrame take_hello() {
    rearm(State::kHelloReady, "no assembled Hello to take");
    return hello_;
  }

  /// The server's Accept; anything else where it belongs throws.
  AcceptFrame take_accept() {
    rearm(State::kAcceptReady, "expected an Accept frame");
    return accept_;
  }

  /// The completed chunk; rearms for the next chunk, or for the next
  /// message after the end chunk.
  StreamChunk take_chunk() {
    rearm(State::kChunkReady, "no assembled chunk to take");
    if (chunk_kind_ == ChunkKind::kEnd) {
      message_ = {};
      streaming_ = false;
      return {ChunkKind::kEnd, {}};
    }
    StreamChunk c{chunk_kind_, std::exchange(chunk_, {})};
    state_ = State::kChunkHdr;
    if (c.kind == ChunkKind::kCompressedData) {
      // The logical (decompressed) size is what counts against the stream
      // limit and the end chunk's total.
      BufferPool& pool = pool_ != nullptr ? *pool_ : BufferPool::global();
      std::vector<std::uint8_t> plain =
          decompress_body(c.bytes, transforms_, limits_.max_chunk_bytes, pool);
      if (plain.size() > limits_.max_stream_bytes - stream_total_) {
        throw TransportError("chunked stream exceeds the stream limit");
      }
      stream_total_ += plain.size();
      pool.release(std::move(c.bytes));
      c = {ChunkKind::kData, std::move(plain)};
    }
    if (auth_ != nullptr) {
      // Absorb the logical bytes in take order == wire order, timed: the
      // verification work overlapped with reassembly.
      const auto t0 = std::chrono::steady_clock::now();
      auth_absorb_chunk(*auth_, c.kind, c.bytes, auth_stats_);
      obs::add_elapsed_ns(auth_stats_.verify_ns, t0);
    }
    return c;
  }

  /// The completed v1/v3 frame. A v2 stream, a Hello (a client's role
  /// check) or an Accept (a server's) where a message belongs throws.
  soap::WireMessage take() {
    rearm(State::kReady,
          streaming_       ? "chunked frame on an endpoint without a stream "
                             "handler"
          : hello_ready()  ? "unexpected v3 frame kind 0"
          : accept_ready() ? "unexpected v3 frame kind 1"
                           : "no assembled frame to take");
    return std::exchange(message_, {});
  }

 private:
  enum class State : std::uint8_t {
    kFixed,        // magic + version
    kV3Kind,       // v3: frame kind byte
    kV3Hello,      // v3: Hello body
    kV3Accept,     // v3: Accept body
    kV3Flags,      // v3: Message flags byte
    kCtLen,        // content-type length, VLS byte by byte
    kLen,          // v1/v3: payload length, u64 big-endian
    kChunkHdr,     // v2: chunk kind u8 + length u64 big-endian
    kCtBytes,      // content-type bytes
    kPayload,      // v1/v3: payload bytes
    kChunkBody,    // v2: chunk body bytes
    kReady,        // v1/v3: one whole frame assembled
    kChunkReady,   // v2: one chunk assembled
    kHelloReady,   // v3: one whole Hello assembled
    kAcceptReady,  // v3: one whole Accept assembled
  };
  /// Bytes of the fixed-size field each state gathers in field_, in State
  /// order (0: not a fixed-size field).
  static constexpr std::uint8_t kFieldBytes[] = {5, 1, 12, 11, 1, 1, 8, 9,
                                                 0, 0, 0, 0, 0, 0, 0};
  static_assert(std::size(kFieldBytes) ==
                static_cast<std::size_t>(State::kAcceptReady) + 1);

  /// Take the item `ready` names and await the next frame; anything else
  /// throws `what`.
  void rearm(State ready, const char* what) {
    if (state_ != ready) throw TransportError(what);
    state_ = State::kFixed;
  }

  bool in_body() const noexcept {
    return state_ == State::kPayload || state_ == State::kChunkBody;
  }
  std::vector<std::uint8_t>& body() {
    return state_ == State::kPayload ? message_.payload : chunk_;
  }

  /// Advance one state with the bytes at hand; returns bytes consumed.
  std::size_t step(std::span<const std::uint8_t> data) {
    const std::size_t take = std::min(data.size(), need());
    if (state_ == State::kCtBytes) {
      message_.content_type.append(
          reinterpret_cast<const char*>(data.data()), take);
      if (need() == 0) state_ = after_content_type();
    } else if (in_body()) {
      // Bytes a body_space() window already sized are overwritten in
      // place; the rest append.
      std::vector<std::uint8_t>& b = body();
      const std::size_t in_place = std::min(take, b.size() - filled_);
      if (in_place > 0) std::memcpy(b.data() + filled_, data.data(), in_place);
      b.insert(b.end(), data.begin() + static_cast<std::ptrdiff_t>(in_place),
               data.begin() + static_cast<std::ptrdiff_t>(take));
      commit(take);
    } else {
      std::memcpy(field_ + have_, data.data(), take);
      have_ += take;
      if (need() == 0) {
        have_ = 0;
        complete_field();
      }
    }
    return take;
  }

  /// The fixed-size field in field_ is complete: check it and move on.
  void complete_field() {
    ByteReader r{std::span<const std::uint8_t>(field_)};
    switch (state_) {
      case State::kFixed:
        if (std::memcmp(field_, kFrameMagic, sizeof(kFrameMagic)) != 0) {
          throw TransportError("bad frame magic");
        }
        version_ = field_[4];
        flags_ = 0;
        if (version_ == kFrameVersionNegotiated && accept_v3_) {
          state_ = State::kV3Kind;
        } else if (version_ == kFrameVersion ||
                   version_ == kFrameVersionChunked) {
          start_content_type();
        } else {
          throw TransportError("unsupported frame version " +
                               std::to_string(version_));
        }
        return;
      case State::kV3Kind:
        if (field_[0] > static_cast<std::uint8_t>(V3FrameKind::kMessage)) {
          throw TransportError("unexpected v3 frame kind " +
                               std::to_string(field_[0]));
        }
        state_ = std::array{State::kV3Hello, State::kV3Accept,
                            State::kV3Flags}[field_[0]];
        return;
      case State::kV3Hello:
        hello_ = {r.read_u8(), r.read_u8(),
                  r.read<std::uint32_t>(ByteOrder::kBig),
                  r.read<std::uint32_t>(ByteOrder::kBig), r.read_u8(),
                  r.read_u8()};
        if (hello_.min_version > hello_.max_version) {
          throw TransportError("Hello with an empty version range");
        }
        state_ = State::kHelloReady;
        return;
      case State::kV3Accept:
        accept_ = {r.read_u8(), r.read<std::uint32_t>(ByteOrder::kBig),
                   r.read<std::uint32_t>(ByteOrder::kBig), r.read_u8(),
                   r.read_u8()};
        if (accept_.version != kFrameVersion &&
            accept_.version != kFrameVersionNegotiated) {
          throw TransportError("Accept names an unknown version " +
                               std::to_string(accept_.version));
        }
        state_ = State::kAcceptReady;
        return;
      case State::kV3Flags:
        flags_ = field_[0];
        if ((flags_ & ~v3flags::kAllKnown) != 0) {
          throw TransportError("unknown v3 message flags");
        }
        start_content_type();
        return;
      case State::kCtLen:
        // The tenth byte of a 64-bit VLS carries one bit and no
        // continuation.
        if (vls_bytes_ == kMaxVlsBytes - 1 && (field_[0] & 0xFE) != 0) {
          throw TransportError("content-type length overflows 64 bits");
        }
        ct_len_ |= static_cast<std::uint64_t>(field_[0] & 0x7F)
                   << (7 * vls_bytes_++);
        if ((field_[0] & 0x80) != 0) return;
        if (ct_len_ > limits_.max_content_type_bytes) {
          throw TransportError("content type unreasonably long");
        }
        message_.content_type.reserve(static_cast<std::size_t>(ct_len_));
        state_ = ct_len_ == 0 ? after_content_type() : State::kCtBytes;
        return;
      case State::kLen: {
        const std::uint64_t len = r.read<std::uint64_t>(ByteOrder::kBig);
        // Cap check BEFORE sizing any buffer: a corrupt or hostile u64
        // never reaches the allocator, the pool's included.
        if (len > limits_.max_message_bytes) {
          throw TransportError("frame payload of " + std::to_string(len) +
                               " bytes exceeds the " +
                               std::to_string(limits_.max_message_bytes) +
                               "-byte message limit");
        }
        start_body(message_.payload, static_cast<std::size_t>(len));
        state_ = body_len_ == 0 ? State::kReady : State::kPayload;
        return;
      }
      default:  // kChunkHdr, the only other fixed-size field
        start_chunk(field_[0],
                    load<std::uint64_t>(field_ + 1, ByteOrder::kBig));
        return;
    }
  }

  void start_content_type() {
    state_ = State::kCtLen;
    ct_len_ = 0;
    vls_bytes_ = 0;
    message_.content_type.clear();
  }

  /// Where the header hands off: v1/v3 read a payload length, v2 reads
  /// chunks. A v2 stream goes live here and rewinds its authenticator.
  State after_content_type() {
    if (version_ != kFrameVersionChunked) return State::kLen;
    streaming_ = true;
    stream_total_ = 0;
    auth_verified_ = false;
    if (auth_ != nullptr) auth_->init();
    return State::kChunkHdr;
  }

  /// Start a body of `len` bytes, already checked against its limit. A
  /// recycled buffer keeps its old bytes, cut to at most `len`: windows and
  /// feeds overwrite them, so b.size() never passes body_len_ and equals it
  /// once the body is complete.
  void start_body(std::vector<std::uint8_t>& b, std::size_t len) {
    body_len_ = len;
    filled_ = 0;
    if (pool_ != nullptr) {
      b = pool_->acquire_for_overwrite(len);
      if (b.size() > len) b.resize(len);
    } else {
      b.clear();
      b.reserve(len);
    }
  }

  /// A chunk header: check it against the limits and the stream's auth
  /// state, then start its body.
  void start_chunk(std::uint8_t kind, std::uint64_t len) {
    chunk_kind_ = static_cast<ChunkKind>(kind);
    if (auth_ != nullptr && auth_verified_ && chunk_kind_ != ChunkKind::kEnd) {
      // The trailer must be the last chunk before End; anything after it
      // is outside the signature.
      throw TransportError("chunk after the auth trailer");
    }
    switch (chunk_kind_) {
      case ChunkKind::kData:
      case ChunkKind::kCompressedData:
      case ChunkKind::kPatch:
        // A compressed chunk's decompressed size is capped (and added to
        // the stream total) when it is taken.
        if (len > limits_.max_chunk_bytes) {
          throw TransportError("chunk of " + std::to_string(len) +
                               " bytes exceeds the chunk limit");
        }
        if (chunk_kind_ == ChunkKind::kData) {
          if (len > limits_.max_stream_bytes - stream_total_) {
            throw TransportError("chunked stream exceeds the stream limit");
          }
          stream_total_ += len;
        }
        break;
      case ChunkKind::kAuth:
        if (auth_ == nullptr) {
          throw TransportError("auth chunk on an unauthenticated stream");
        }
        if (len != 1 + auth_->tag_size()) {
          throw TransportError("malformed auth trailer");
        }
        break;
      case ChunkKind::kEnd:
        if (len != 8) throw TransportError("malformed end chunk");
        break;
      default:
        throw TransportError("unknown chunk kind " + std::to_string(kind));
    }
    if (chunk_kind_ == ChunkKind::kEnd) {
      chunk_.clear();  // the total is checked here and never surfaces
      body_len_ = 8;
      filled_ = 0;
    } else {
      start_body(chunk_, static_cast<std::size_t>(len));
    }
    state_ = State::kChunkBody;
    if (body_len_ == 0) complete_chunk();
  }

  /// A chunk body is complete. An Auth trailer is verified on the spot —
  /// feed() stalls on every ready chunk, so the receive-side MAC has
  /// absorbed all before it — and never surfaces.
  void complete_chunk() {
    if (chunk_kind_ == ChunkKind::kAuth) {
      verify_auth_trailer();
      chunk_.clear();
      state_ = State::kChunkHdr;
      return;
    }
    if (chunk_kind_ == ChunkKind::kEnd) {
      if (auth_ != nullptr && !auth_verified_) {
        if (auth_stats_.tag_failures != nullptr) {
          auth_stats_.tag_failures->add();
        }
        throw TransportError("stream ended without an authentication trailer");
      }
      if (load<std::uint64_t>(chunk_.data(), ByteOrder::kBig) !=
          stream_total_) {
        throw TransportError("chunked stream total mismatch");
      }
    }
    state_ = State::kChunkReady;
  }

  /// Check the Auth trailer in chunk_ (algo byte + tag) against the
  /// absorbed chunk sequence.
  void verify_auth_trailer() {
    const auto t0 = std::chrono::steady_clock::now();
    std::uint8_t expected[kMaxAuthTagBytes];
    const std::size_t tag_size = auth_->tag_size();
    auth_finalize_tag(*auth_, stream_total_,
                      std::span<std::uint8_t>(expected, tag_size));
    const bool ok = constant_time_equal(
                        std::span<const std::uint8_t>(chunk_).subspan(1),
                        {expected, tag_size}) &&
                    chunk_[0] == auth_algo_;
    obs::add_elapsed_ns(auth_stats_.verify_ns, t0);
    if (!ok) {
      if (auth_stats_.tag_failures != nullptr) auth_stats_.tag_failures->add();
      throw TransportError("stream authentication tag mismatch");
    }
    auth_verified_ = true;
  }

  FrameLimits limits_;
  BufferPool* pool_ = nullptr;
  bool accept_v3_ = false;
  State state_ = State::kFixed;
  std::uint8_t field_[12]{};  // the fixed-size field being gathered
  std::size_t have_ = 0;
  std::uint8_t version_ = kFrameVersion;
  std::uint8_t flags_ = 0;
  std::uint64_t ct_len_ = 0;
  std::size_t vls_bytes_ = 0;
  HelloFrame hello_;
  AcceptFrame accept_;
  // The body being received: message_.payload (v1/v3) or chunk_ (v2).
  std::size_t body_len_ = 0;
  std::size_t filled_ = 0;
  soap::WireMessage message_;
  // v2 stream state, and its authentication on negotiated connections.
  std::uint8_t transforms_ = 0;
  ChunkKind chunk_kind_ = ChunkKind::kData;
  std::uint64_t stream_total_ = 0;
  std::vector<std::uint8_t> chunk_;
  bool streaming_ = false;
  StreamAuthenticator* auth_ = nullptr;
  std::uint8_t auth_algo_ = 0;
  AuthStats auth_stats_{};
  bool auth_verified_ = false;
};

// ---- blocking drivers ------------------------------------------------------

/// Drive `p` off a blocking stream until an item completes or `stop()`
/// holds, reading exactly need() bytes at a time (bodies into place).
template <FrameStream S, typename Stop>
void read_until(S& stream, FrameAssembler& p, Stop&& stop) {
  std::uint8_t field[1024];
  while (p.need() != 0 && !stop()) {
    const std::span<std::uint8_t> body = p.body_space(p.need());
    if (!body.empty()) {
      stream.read_exact(body.data(), body.size());
      p.commit(body.size());
    } else {
      const std::size_t n = std::min(p.need(), sizeof(field));
      stream.read_exact(field, n);
      p.feed({field, n});
    }
  }
}

/// Read one framed v1 message; throws TransportError on malformed frames,
/// a closed connection, or a frame that exceeds `limits`. When `pool` is
/// given, the payload buffer is recycled from it (the caller returns it by
/// releasing the payload — or by adopting it into a SharedBuffer).
template <FrameStream S>
soap::WireMessage read_frame(S& stream, const FrameLimits& limits = {},
                             BufferPool* pool = nullptr) {
  FrameAssembler p(limits, pool);
  read_until(stream, p, [&] { return p.streaming(); });
  return p.take();
}

/// A header read by read_frame_start: everything up to the payload length
/// (v1/v3) or the first chunk (v2).
struct FrameStart {
  std::uint8_t version = kFrameVersion;
  std::uint8_t flags = 0;  // v3 Message flags; always 0 on v1/v2
  std::string content_type;
  std::vector<std::uint8_t> header;  // the bytes read, for read_frame_body

  bool chunked() const noexcept { return version == kFrameVersionChunked; }
};

/// `accept_v3` admits v3 Message frames, for a connection that negotiated
/// v3; a Hello or Accept where a message belongs is a TransportError.
template <FrameStream S>
FrameStart read_frame_start(S& stream, const FrameLimits& limits = {},
                            bool accept_v3 = false) {
  FrameStart start;
  FrameAssembler p(limits, nullptr, accept_v3);
  while (p.need() != 0 && !p.at_body()) {
    const std::size_t at = start.header.size();
    start.header.resize(at + p.need());
    stream.read_exact(start.header.data() + at, start.header.size() - at);
    p.feed(std::span<const std::uint8_t>(start.header).subspan(at));
  }
  if (!p.at_body()) p.take();  // a Hello or an Accept: take() rejects it
  start.version = p.frame_version();
  start.flags = p.frame_flags();
  start.content_type = p.stream_content_type();
  return start;
}

/// Finish a v1/v3 frame whose header `start` was consumed: the header is
/// replayed into a parser with these `limits` and `pool`.
template <FrameStream S>
soap::WireMessage read_frame_body(S& stream, FrameStart start,
                                  const FrameLimits& limits = {},
                                  BufferPool* pool = nullptr) {
  FrameAssembler p(limits, pool, start.version == kFrameVersionNegotiated);
  p.feed(start.header);
  read_until(stream, p, [&] { return p.streaming(); });
  soap::WireMessage m = p.take();
  m.content_type = std::move(start.content_type);
  return m;
}

/// Client side of the handshake: read the server's Accept. Anything else,
/// an old server's connection cut included, throws TransportError.
template <FrameStream S>
AcceptFrame read_accept(S& stream) {
  FrameAssembler p({}, nullptr, /*accept_v3=*/true);
  read_until(stream, p, [&] { return p.at_body(); });
  return p.take_accept();
}

}  // namespace bxsoap::transport
