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
// The functions are templates over any FrameStream (TcpStream, the fault
// injector's FaultyStream, the in-memory MemoryStream), so the same framing
// code is exercised on real sockets and in deterministic no-socket tests.
//
// Reading is defensive: the declared lengths come from the peer, so every
// one is checked against FrameLimits BEFORE any allocation sized by it. A
// corrupt or hostile length field costs a TransportError, not a multi-GB
// allocation.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
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
/// both see identical input regardless of what the wire carried.
inline void auth_absorb_chunk(StreamAuthenticator& a, ChunkKind logical_kind,
                              std::span<const std::uint8_t> body) {
  std::uint8_t hdr[9];
  hdr[0] = static_cast<std::uint8_t>(logical_kind);
  store<std::uint64_t>(body.size(), ByteOrder::kBig, hdr + 1);
  a.update({hdr, sizeof(hdr)});
  a.update(body);
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

/// Streams that can additionally gather two buffers into one syscall
/// (TcpStream via sendmsg). Test streams (MemoryStream, FaultyStream) stay
/// plain FrameStreams, so their byte-offset-deterministic fault injection
/// is unchanged.
template <typename S>
concept VectoredStream =
    FrameStream<S> && requires(S& s, std::span<const std::uint8_t> buf) {
      s.write_vectored(buf, buf);
    };

/// Append the frame header for `content_type` to `w`, reserving the 8-byte
/// payload-length field as zeros. Returns the length field's offset in `w`;
/// pass it to end_frame once the payload has been appended. This is how an
/// encoder emits header + payload into ONE buffer, sent with one write_all.
inline std::size_t begin_frame(ByteWriter& w, std::string_view content_type) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersion);
  vls_write(w, content_type.size());
  w.write_string(content_type);
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
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kMessage));
  w.write_u8(flags);
  vls_write(w, content_type.size());
  w.write_string(content_type);
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

/// Replace a kCompressed v3 Message payload with its plain (pre-compress,
/// still possibly dictionary-coded) form. The old buffer is recycled into
/// `pool` and the new one comes from it. Throws TransportError when no
/// transform set was negotiated, on an unknown transform id, or on a
/// declared decompressed size past the message limit.
inline std::vector<std::uint8_t> decompress_frame_payload(
    std::vector<std::uint8_t> payload, std::uint8_t transforms,
    const FrameLimits& limits, BufferPool& pool) {
  std::vector<std::uint8_t> plain =
      decompress_body(payload, transforms, limits.max_message_bytes, pool);
  pool.release(std::move(payload));
  return plain;
}

/// Append one whole Hello frame (magic + version + kind + body).
inline void encode_hello(ByteWriter& w, const HelloFrame& h) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kHello));
  w.write_u8(h.min_version);
  w.write_u8(h.max_version);
  w.write<std::uint32_t>(h.dict_max_entries, ByteOrder::kBig);
  w.write<std::uint32_t>(h.dict_max_bytes, ByteOrder::kBig);
  w.write_u8(h.transforms);
  w.write_u8(h.auth);
}

/// Append one whole Accept frame (magic + version + kind + body).
inline void encode_accept(ByteWriter& w, const AcceptFrame& a) {
  w.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  w.write_u8(kFrameVersionNegotiated);
  w.write_u8(static_cast<std::uint8_t>(V3FrameKind::kAccept));
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

/// Client side of the handshake: read the server's Accept. Anything else —
/// including the connection cut an old server inflicts when it rejects the
/// Hello's unknown version — throws TransportError, which the caller turns
/// into a permanent downgrade for this binding.
template <FrameStream S>
AcceptFrame read_accept(S& stream) {
  std::uint8_t hdr[6];
  stream.read_exact(hdr, sizeof(hdr));
  if (std::memcmp(hdr, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw TransportError("bad frame magic in handshake reply");
  }
  if (hdr[4] != kFrameVersionNegotiated ||
      hdr[5] != static_cast<std::uint8_t>(V3FrameKind::kAccept)) {
    throw TransportError("expected an Accept frame, got version " +
                         std::to_string(hdr[4]) + " kind " +
                         std::to_string(hdr[5]));
  }
  std::uint8_t body[11];
  stream.read_exact(body, sizeof(body));
  AcceptFrame a;
  a.version = body[0];
  a.dict_max_entries = load<std::uint32_t>(body + 1, ByteOrder::kBig);
  a.dict_max_bytes = load<std::uint32_t>(body + 5, ByteOrder::kBig);
  a.transforms = body[9];
  a.auth = body[10];
  if (a.version != kFrameVersion && a.version != kFrameVersionNegotiated) {
    throw TransportError("Accept names an unknown version " +
                         std::to_string(a.version));
  }
  return a;
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
  header.write_bytes(kFrameMagic, sizeof(kFrameMagic));
  header.write_u8(kFrameVersion);
  vls_write(header, content_type.size());
  header.write_string(content_type);
  header.write<std::uint64_t>(payload.size(), ByteOrder::kBig);
  if constexpr (VectoredStream<S>) {
    stream.write_vectored(header.bytes(), payload);
  } else {
    stream.write_all(header.bytes());
    stream.write_all(payload);
  }
}

template <FrameStream S>
void write_frame(S& stream, const soap::WireMessage& m) {
  write_frame(stream, m.content_type, m.payload);
}

/// The part of a BXTP header shared by all versions: everything up to
/// (v1/v3) the payload length or (v2) the first chunk. Reading it first
/// lets the reader decide per message whether the materialized or the
/// streaming path handles the rest of the bytes.
struct FrameStart {
  std::uint8_t version = kFrameVersion;
  std::uint8_t flags = 0;  // v3 Message flags; always 0 on v1/v2
  std::string content_type;

  bool chunked() const noexcept { return version == kFrameVersionChunked; }
};

/// `accept_v3` admits v3 Message frames, for a connection that negotiated
/// v3. When false (the default) a version-3 frame is rejected as an
/// unsupported version. Any v3 kind other than Message — a Hello included
/// — is a TransportError: the blocking reader never negotiates.
template <FrameStream S>
FrameStart read_frame_start(S& stream, const FrameLimits& limits = {},
                            bool accept_v3 = false) {
  std::uint8_t fixed[5];
  stream.read_exact(fixed, sizeof(fixed));
  if (std::memcmp(fixed, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    throw TransportError("bad frame magic");
  }
  FrameStart start;
  start.version = fixed[4];
  if (fixed[4] == kFrameVersionNegotiated && accept_v3) {
    std::uint8_t kind;
    stream.read_exact(&kind, 1);
    if (kind != static_cast<std::uint8_t>(V3FrameKind::kMessage)) {
      throw TransportError("unexpected v3 frame kind " +
                           std::to_string(kind));
    }
    stream.read_exact(&start.flags, 1);
    if ((start.flags & ~v3flags::kAllKnown) != 0) {
      throw TransportError("unknown v3 message flags");
    }
  } else if (fixed[4] != kFrameVersion && fixed[4] != kFrameVersionChunked) {
    throw TransportError("unsupported frame version " +
                         std::to_string(fixed[4]));
  }
  // Content-type length: VLS, read byte by byte off the stream.
  std::uint64_t ct_len = 0;
  int shift = 0;
  for (std::size_t i = 0; i < kMaxVlsBytes; ++i) {
    std::uint8_t b;
    stream.read_exact(&b, 1);
    ct_len |= static_cast<std::uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (i + 1 == kMaxVlsBytes) throw TransportError("malformed frame VLS");
  }
  if (ct_len > limits.max_content_type_bytes) {
    throw TransportError("content type unreasonably long");
  }
  start.content_type.resize(static_cast<std::size_t>(ct_len));
  stream.read_exact(
      reinterpret_cast<std::uint8_t*>(start.content_type.data()),
      start.content_type.size());
  return start;
}

/// Finish reading a v1 frame whose header `start` was already consumed.
template <FrameStream S>
soap::WireMessage read_frame_body(S& stream, FrameStart start,
                                  const FrameLimits& limits = {},
                                  BufferPool* pool = nullptr) {
  if (start.chunked()) {
    throw TransportError(
        "chunked frame on an endpoint without a stream handler");
  }
  std::uint8_t len_be[8];
  stream.read_exact(len_be, 8);
  const std::uint64_t payload_len =
      load<std::uint64_t>(len_be, ByteOrder::kBig);
  // Checked against the cap BEFORE sizing the buffer: a corrupt or hostile
  // u64 must not reach the allocator.
  if (payload_len > limits.max_message_bytes) {
    throw TransportError("frame payload of " + std::to_string(payload_len) +
                         " bytes exceeds the " +
                         std::to_string(limits.max_message_bytes) +
                         "-byte message limit");
  }
  soap::WireMessage m;
  m.content_type = std::move(start.content_type);
  if (pool != nullptr) {
    // The limit check above has already run: a hostile length never
    // reaches the pool's allocator either.
    m.payload = pool->acquire(static_cast<std::size_t>(payload_len));
  }
  m.payload.resize(static_cast<std::size_t>(payload_len));
  stream.read_exact(m.payload.data(), m.payload.size());
  return m;
}

/// The per-direction compression setup a negotiated connection hands its
/// chunk writers: the intersection transform set from the handshake plus
/// the adaptive policy and the pool compressed bodies are built in.
struct ChunkCompression {
  std::uint8_t transforms = 0;  ///< 0 = never compress
  CompressPolicy policy{};
  BufferPool* pool = nullptr;
  CompressStats stats{};
};

/// Writer side of a v2 chunked transfer: header once, then any number of
/// data chunks, optional patch chunks, and one end chunk. Each chunk goes
/// out in a single gathered syscall on streams that support it.
template <FrameStream S>
class ChunkedFrameWriter {
 public:
  ChunkedFrameWriter(S& stream, std::string_view content_type)
      : stream_(stream) {
    ByteWriter h;
    h.write_bytes(kFrameMagic, sizeof(kFrameMagic));
    h.write_u8(kFrameVersionChunked);
    vls_write(h, content_type.size());
    h.write_string(content_type);
    stream_.write_all(h.bytes());
  }

  /// Arm adaptive per-chunk compression (negotiated connections only).
  void set_compression(const ChunkCompression& c) { compression_ = c; }

  /// Arm stream authentication (negotiated connections only): every data
  /// and patch chunk is absorbed into `auth` as it is written — BEFORE
  /// compression, so the tag covers the plaintext order — and finish()
  /// emits the Auth trailer ahead of the end chunk. `auth` must outlive
  /// the writer and must be freshly init()'d for this stream.
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    auth_ = auth;
    auth_algo_ = algo;
    auth_stats_ = stats;
    if (auth_ != nullptr) auth_->init();
  }

  void write_data(std::span<const std::uint8_t> chunk) {
    if (auth_ != nullptr) {
      auth_absorb_chunk(*auth_, ChunkKind::kData, chunk);
      if (auth_stats_.bytes_authenticated != nullptr) {
        auth_stats_.bytes_authenticated->add(chunk.size());
      }
    }
    if (compression_.transforms != 0 && compression_.pool != nullptr) {
      std::vector<std::uint8_t> packed =
          compression_.pool->acquire(chunk.size());
      const Transform used =
          compress_append(chunk, compression_.transforms, compression_.policy,
                          *compression_.pool, packed, compression_.stats);
      if (used != Transform::kNone) {
        write_chunk(ChunkKind::kCompressedData, packed);
        total_ += chunk.size();  // the end chunk totals DECOMPRESSED bytes
        compression_.pool->release(std::move(packed));
        return;
      }
      compression_.pool->release(std::move(packed));
    }
    write_chunk(ChunkKind::kData, chunk);
    total_ += chunk.size();
  }

  void write_patches(std::span<const bxsa::PatchRecord> patches) {
    if (patches.empty()) return;
    ByteWriter body;
    encode_patch_records(body, patches);
    absorb_patch(body.bytes());
    write_chunk(ChunkKind::kPatch, body.bytes());
  }

  /// Forward an already-encoded chunk body verbatim (the pass-through
  /// path: an echo or relay handler never decodes the records).
  void write_raw(ChunkKind kind, std::span<const std::uint8_t> body) {
    if (kind == ChunkKind::kEnd) {
      throw TransportError("end chunks are emitted by finish()");
    }
    if (kind == ChunkKind::kAuth) {
      throw TransportError("auth trailers are emitted by finish()");
    }
    if (kind == ChunkKind::kData) {
      // Route through write_data so pass-through chunks (echo/relay
      // handlers) get the same adaptive compression as encoded ones.
      write_data(body);
      return;
    }
    if (kind == ChunkKind::kPatch) absorb_patch(body);
    write_chunk(kind, body);
  }

  /// Close the stream: on an authenticated stream emits the Auth trailer
  /// (algo byte + tag over the logical chunk sequence), then the end chunk
  /// carrying the data-byte total.
  void finish() {
    if (auth_ != nullptr) {
      std::uint8_t trailer[1 + kMaxAuthTagBytes];
      trailer[0] = auth_algo_;
      const std::size_t tag_size = auth_->tag_size();
      auth_finalize_tag(*auth_, total_,
                        std::span<std::uint8_t>(trailer + 1, tag_size));
      write_chunk(ChunkKind::kAuth, {trailer, 1 + tag_size});
    }
    std::uint8_t total_be[8];
    store<std::uint64_t>(total_, ByteOrder::kBig, total_be);
    write_chunk(ChunkKind::kEnd, {total_be, sizeof(total_be)});
  }

  std::uint64_t total_data_bytes() const noexcept { return total_; }

 private:
  void absorb_patch(std::span<const std::uint8_t> body) {
    if (auth_ == nullptr) return;
    auth_absorb_chunk(*auth_, ChunkKind::kPatch, body);
    if (auth_stats_.bytes_authenticated != nullptr) {
      auth_stats_.bytes_authenticated->add(body.size());
    }
  }

  void write_chunk(ChunkKind kind, std::span<const std::uint8_t> body) {
    std::uint8_t hdr[9];
    hdr[0] = static_cast<std::uint8_t>(kind);
    store<std::uint64_t>(body.size(), ByteOrder::kBig, hdr + 1);
    if constexpr (VectoredStream<S>) {
      stream_.write_vectored({hdr, sizeof(hdr)}, body);
    } else {
      stream_.write_all({hdr, sizeof(hdr)});
      stream_.write_all(body);
    }
  }

  S& stream_;
  ChunkCompression compression_{};
  StreamAuthenticator* auth_ = nullptr;
  std::uint8_t auth_algo_ = 0;
  AuthStats auth_stats_{};
  std::uint64_t total_ = 0;
};

/// Reader side of a v2 chunked transfer, for blocking endpoints (the
/// thread-per-connection pool, the streaming client). The BXTP header must
/// already have been consumed by read_frame_start. Every peer-declared
/// length is checked against `limits` BEFORE the buffer it sizes exists.
template <FrameStream S>
class ChunkedFrameReader {
 public:
  ChunkedFrameReader(S& stream, FrameLimits limits = {},
                     BufferPool* pool = nullptr)
      : stream_(stream), limits_(limits), pool_(pool) {}

  /// Admit kCompressedData chunks (negotiated connections only): they are
  /// decompressed on receipt and surface as plain kData chunks, so the
  /// consumer never sees a transform.
  void set_transforms(std::uint8_t transforms) { transforms_ = transforms; }

  /// Require and verify the stream's Auth trailer (negotiated connections
  /// only). Every surfaced data/patch chunk is absorbed into `auth` in
  /// wire order — AFTER decompression, mirroring the sender's plaintext
  /// absorption — and the trailer is consumed and checked here, before
  /// the end chunk can surface: a tag mismatch, a missing trailer, or any
  /// chunk after the trailer throws TransportError. `auth` must outlive
  /// the reader.
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    auth_ = auth;
    auth_algo_ = algo;
    auth_stats_ = stats;
    if (auth_ != nullptr) auth_->init();
  }

  /// Read the next chunk. After the end chunk arrives, done() is true and
  /// further calls throw. Auth trailers are consumed internally (verified,
  /// never surfaced), so consumers see exactly the pre-auth chunk stream.
  StreamChunk next() {
    for (;;) {
      if (done_) {
        throw TransportError("read past the end of a chunked stream");
      }
      std::uint8_t hdr[9];
      stream_.read_exact(hdr, sizeof(hdr));
      const std::uint64_t len = load<std::uint64_t>(hdr + 1, ByteOrder::kBig);
      StreamChunk c;
      switch (hdr[0]) {
        case static_cast<std::uint8_t>(ChunkKind::kData):
          c.kind = ChunkKind::kData;
          if (len > limits_.max_chunk_bytes) {
            throw TransportError("chunk of " + std::to_string(len) +
                                 " bytes exceeds the chunk limit");
          }
          if (len > limits_.max_stream_bytes - total_) {
            throw TransportError("chunked stream exceeds the stream limit");
          }
          break;
        case static_cast<std::uint8_t>(ChunkKind::kCompressedData):
          c.kind = ChunkKind::kCompressedData;
          // Wire bytes of a compressed chunk obey the same chunk cap; the
          // decompressed size is capped separately below.
          if (len > limits_.max_chunk_bytes) {
            throw TransportError("chunk of " + std::to_string(len) +
                                 " bytes exceeds the chunk limit");
          }
          break;
        case static_cast<std::uint8_t>(ChunkKind::kPatch):
          c.kind = ChunkKind::kPatch;
          if (len > limits_.max_chunk_bytes) {
            throw TransportError("patch chunk exceeds the chunk limit");
          }
          break;
        case static_cast<std::uint8_t>(ChunkKind::kAuth):
          c.kind = ChunkKind::kAuth;
          if (auth_ == nullptr) {
            throw TransportError("auth chunk on an unauthenticated stream");
          }
          if (len != 1 + auth_->tag_size()) {
            throw TransportError("malformed auth trailer");
          }
          break;
        case static_cast<std::uint8_t>(ChunkKind::kEnd):
          c.kind = ChunkKind::kEnd;
          if (len != 8) throw TransportError("malformed end chunk");
          break;
        default:
          throw TransportError("unknown chunk kind " +
                               std::to_string(hdr[0]));
      }
      if (auth_ != nullptr && auth_verified_ && c.kind != ChunkKind::kEnd) {
        // The trailer must be the last chunk before End; anything after it
        // is outside the signature and therefore a protocol violation.
        throw TransportError("chunk after the auth trailer");
      }
      if (c.kind == ChunkKind::kEnd) {
        if (auth_ != nullptr && !auth_verified_) {
          if (auth_stats_.tag_failures != nullptr) {
            auth_stats_.tag_failures->add();
          }
          throw TransportError(
              "stream ended without an authentication trailer");
        }
        std::uint8_t total_be[8];
        stream_.read_exact(total_be, sizeof(total_be));
        if (load<std::uint64_t>(total_be, ByteOrder::kBig) != total_) {
          throw TransportError("chunked stream total mismatch");
        }
        done_ = true;
        return c;
      }
      if (c.kind == ChunkKind::kAuth) {
        std::uint8_t trailer[1 + kMaxAuthTagBytes];
        stream_.read_exact(trailer, static_cast<std::size_t>(len));
        verify_trailer({trailer, static_cast<std::size_t>(len)});
        continue;  // verified; the trailer never surfaces
      }
      if (pool_ != nullptr) {
        c.bytes = pool_->acquire(static_cast<std::size_t>(len));
      }
      c.bytes.resize(static_cast<std::size_t>(len));
      stream_.read_exact(c.bytes.data(), c.bytes.size());
      if (c.kind == ChunkKind::kCompressedData) {
        // Decompress on receipt (the size bomb dies inside decompress_body,
        // before any allocation) and surface a plain data chunk.
        BufferPool& pool = pool_ != nullptr ? *pool_ : BufferPool::global();
        std::vector<std::uint8_t> plain = decompress_body(
            c.bytes, transforms_, limits_.max_chunk_bytes, pool);
        if (plain.size() > limits_.max_stream_bytes - total_) {
          throw TransportError("chunked stream exceeds the stream limit");
        }
        pool.release(std::move(c.bytes));
        c.kind = ChunkKind::kData;
        c.bytes = std::move(plain);
      }
      if (c.kind == ChunkKind::kData) total_ += c.bytes.size();
      if (auth_ != nullptr) absorb(c.kind, c.bytes);
      return c;
    }
  }

  bool done() const noexcept { return done_; }
  /// Data bytes seen so far (the verified total once done()).
  std::uint64_t total_data_bytes() const noexcept { return total_; }

 private:
  /// Absorb one surfaced (logical) chunk into the receive-side
  /// authenticator, timed: this is the verification work the signed path
  /// overlaps with reassembly.
  void absorb(ChunkKind kind, std::span<const std::uint8_t> body) {
    const auto t0 = std::chrono::steady_clock::now();
    auth_absorb_chunk(*auth_, kind, body);
    if (auth_stats_.bytes_authenticated != nullptr) {
      auth_stats_.bytes_authenticated->add(body.size());
    }
    if (auth_stats_.verify_ns != nullptr) {
      auth_stats_.verify_ns->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
  }

  void verify_trailer(std::span<const std::uint8_t> trailer) {
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = trailer[0] == auth_algo_;
    std::uint8_t expected[kMaxAuthTagBytes];
    const std::size_t tag_size = auth_->tag_size();
    auth_finalize_tag(*auth_, total_,
                      std::span<std::uint8_t>(expected, tag_size));
    ok = constant_time_equal(trailer.subspan(1),
                             {expected, tag_size}) &&
         ok;
    if (auth_stats_.verify_ns != nullptr) {
      auth_stats_.verify_ns->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
    if (!ok) {
      if (auth_stats_.tag_failures != nullptr) auth_stats_.tag_failures->add();
      throw TransportError("stream authentication tag mismatch");
    }
    auth_verified_ = true;
  }

  S& stream_;
  FrameLimits limits_;
  BufferPool* pool_ = nullptr;
  std::uint8_t transforms_ = 0;
  StreamAuthenticator* auth_ = nullptr;
  std::uint8_t auth_algo_ = 0;
  AuthStats auth_stats_{};
  bool auth_verified_ = false;
  std::uint64_t total_ = 0;
  bool done_ = false;
};

/// Read one framed message; throws TransportError on malformed frames, a
/// closed connection, or a frame that exceeds `limits`. When `pool` is
/// given, the payload buffer is recycled from it (the caller returns it by
/// releasing the payload — or by adopting it into a SharedBuffer).
/// Incremental BXTP frame reassembly from arbitrary byte chunks — the
/// event server's counterpart to read_frame, which owns a blocking stream.
/// A reactor feeds whatever the socket had; the assembler consumes up to
/// one frame per feed() call and parks the rest for the next call. The
/// same defensive order as read_frame holds: every peer-declared length is
/// checked against FrameLimits BEFORE the corresponding allocation, so a
/// hostile length field costs a TransportError, not memory.
class FrameAssembler {
 public:
  explicit FrameAssembler(FrameLimits limits = {}, BufferPool* pool = nullptr,
                          bool accept_v3 = false)
      : limits_(limits), pool_(pool), accept_v3_(accept_v3) {}

  /// Admit kCompressedData chunks on this connection (set after the
  /// handshake negotiated a transform set); they decompress on take and
  /// surface as plain kData chunks. v3 kCompressed MESSAGE payloads are
  /// not handled here — the connection owner decompresses them alongside
  /// dictionary decoding.
  void set_transforms(std::uint8_t transforms) { transforms_ = transforms; }

  /// Require and verify an Auth trailer on every chunked stream this
  /// connection carries (set after the handshake negotiated an auth
  /// algorithm). Surfaced data/patch chunks are absorbed in wire order as
  /// they are taken; the trailer itself is verified the moment its body
  /// completes — BEFORE the end chunk can assemble, so a handler never
  /// observes End on a stream whose tag failed — and never surfaces.
  /// `auth` must outlive the assembler; it is re-init()'d per stream.
  void set_auth(StreamAuthenticator* auth, std::uint8_t algo,
                const AuthStats& stats = {}) {
    auth_ = auth;
    auth_algo_ = algo;
    auth_stats_ = stats;
  }

  /// Consume bytes from the front of `data` until one frame (v1) or one
  /// chunk (v2) completes or the input runs out; returns the number
  /// consumed. When a frame completed, ready() is true and the caller must
  /// take() it before feeding again; when a chunk completed, chunk_ready()
  /// is true and the caller must take_chunk(). Malformed or over-limit
  /// input throws TransportError and poisons the connection — there is no
  /// way to resynchronize a byte stream.
  std::size_t feed(std::span<const std::uint8_t> data) {
    std::size_t consumed = 0;
    while (consumed < data.size() && state_ != State::kReady &&
           state_ != State::kChunkReady && state_ != State::kHelloReady) {
      consumed += step(data.subspan(consumed));
    }
    return consumed;
  }

  bool ready() const noexcept { return state_ == State::kReady; }

  /// True between the first byte of a frame and its completion — the
  /// window a slowloris peer stalls in. Chunk gaps of a v2 stream count:
  /// an idle mid-stream peer holds the same resources.
  bool mid_frame() const noexcept {
    return state_ != State::kReady && state_ != State::kHelloReady &&
           !(state_ == State::kFixed && have_ == 0);
  }

  bool hello_ready() const noexcept { return state_ == State::kHelloReady; }

  /// The completed Hello; rearms the assembler for the next frame.
  HelloFrame take_hello() {
    if (state_ != State::kHelloReady) {
      throw TransportError("no assembled Hello to take");
    }
    state_ = State::kFixed;
    have_ = 0;
    return hello_;
  }

  /// Version and flags of the frame most recently completed (valid from
  /// ready() until the next feed() makes progress). v1/v2 frames report
  /// flags 0.
  std::uint8_t frame_version() const noexcept { return version_; }
  std::uint8_t frame_flags() const noexcept { return flags_; }

  /// True while a v2 chunked message is in flight (header parsed, end
  /// chunk not yet taken). The content type is available from
  /// stream_content_type() for the stream's whole lifetime.
  bool streaming() const noexcept { return streaming_; }

  bool chunk_ready() const noexcept { return state_ == State::kChunkReady; }

  const std::string& stream_content_type() const noexcept {
    return message_.content_type;
  }

  /// The completed chunk; rearms the assembler for the next chunk, or for
  /// the next message once this was the end chunk.
  StreamChunk take_chunk() {
    if (state_ != State::kChunkReady) {
      throw TransportError("no assembled chunk to take");
    }
    StreamChunk c;
    c.kind = chunk_kind_;
    have_ = 0;
    if (chunk_kind_ == ChunkKind::kEnd) {
      // Stream complete: the next bytes start a fresh BXTP header.
      chunk_.clear();
      message_ = {};
      streaming_ = false;
      stream_total_ = 0;
      auth_verified_ = false;
      state_ = State::kFixed;
    } else if (chunk_kind_ == ChunkKind::kCompressedData) {
      // Decompress on take and surface a plain data chunk; the logical
      // (decompressed) size is what counts against the stream limit and
      // the end chunk's total.
      BufferPool& pool = pool_ != nullptr ? *pool_ : BufferPool::global();
      std::vector<std::uint8_t> plain =
          decompress_body(chunk_, transforms_, limits_.max_chunk_bytes, pool);
      if (plain.size() > limits_.max_stream_bytes - stream_total_) {
        throw TransportError("chunked stream exceeds the stream limit");
      }
      stream_total_ += plain.size();
      pool.release(std::move(chunk_));
      chunk_ = {};
      c.kind = ChunkKind::kData;
      c.bytes = std::move(plain);
      state_ = State::kChunkHdr;
    } else {
      c.bytes = std::move(chunk_);
      chunk_ = {};
      state_ = State::kChunkHdr;
    }
    if (auth_ != nullptr && (c.kind == ChunkKind::kData ||
                             c.kind == ChunkKind::kPatch)) {
      // Receive-side absorption happens on the logical (decompressed)
      // bytes, in take order == wire order, and is timed: this is the
      // verification work overlapped with reassembly.
      const auto t0 = std::chrono::steady_clock::now();
      auth_absorb_chunk(*auth_, c.kind, c.bytes);
      if (auth_stats_.bytes_authenticated != nullptr) {
        auth_stats_.bytes_authenticated->add(c.bytes.size());
      }
      if (auth_stats_.verify_ns != nullptr) {
        auth_stats_.verify_ns->add(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count()));
      }
    }
    return c;
  }

  /// The completed frame; resets the assembler for the next one.
  soap::WireMessage take() {
    if (state_ != State::kReady) {
      throw TransportError("no assembled frame to take");
    }
    soap::WireMessage m;
    m.content_type = std::move(message_.content_type);
    m.payload = std::move(message_.payload);
    message_ = {};
    state_ = State::kFixed;
    have_ = 0;
    return m;
  }

 private:
  enum class State : std::uint8_t {
    kFixed,       // magic + version (5 bytes)
    kV3Kind,      // v3: frame kind byte
    kV3Hello,     // v3: Hello body (12 bytes)
    kHelloReady,  // v3: one whole Hello assembled
    kV3Flags,     // v3: Message flags byte
    kCtLen,       // content-type length, VLS byte by byte
    kCtBytes,     // content-type bytes
    kLen,         // v1/v3: payload length, u64 big-endian
    kPayload,     // v1/v3: payload bytes
    kReady,       // v1/v3: one whole frame assembled
    kChunkHdr,    // v2: chunk kind u8 + length u64 big-endian
    kChunkBody,   // v2: chunk body bytes
    kChunkReady,  // v2: one chunk assembled
  };

  /// Advance one state with the bytes at hand; returns bytes consumed.
  std::size_t step(std::span<const std::uint8_t> data) {
    switch (state_) {
      case State::kFixed: {
        const std::size_t take = std::min(data.size(), sizeof(fixed_) - have_);
        std::memcpy(fixed_ + have_, data.data(), take);
        have_ += take;
        if (have_ == sizeof(fixed_)) {
          if (std::memcmp(fixed_, kFrameMagic, sizeof(kFrameMagic)) != 0) {
            throw TransportError("bad frame magic");
          }
          if (fixed_[4] != kFrameVersion &&
              fixed_[4] != kFrameVersionChunked &&
              !(fixed_[4] == kFrameVersionNegotiated && accept_v3_)) {
            throw TransportError("unsupported frame version " +
                                 std::to_string(fixed_[4]));
          }
          version_ = fixed_[4];
          flags_ = 0;
          if (version_ == kFrameVersionNegotiated) {
            state_ = State::kV3Kind;
            have_ = 0;
            return take;
          }
          state_ = State::kCtLen;
          ct_len_ = 0;
          vls_shift_ = 0;
          vls_bytes_ = 0;
        }
        return take;
      }
      case State::kV3Kind: {
        const std::uint8_t kind = data[0];
        if (kind == static_cast<std::uint8_t>(V3FrameKind::kHello)) {
          state_ = State::kV3Hello;
          have_ = 0;
        } else if (kind == static_cast<std::uint8_t>(V3FrameKind::kMessage)) {
          state_ = State::kV3Flags;
        } else {
          throw TransportError("unexpected v3 frame kind " +
                               std::to_string(kind));
        }
        return 1;
      }
      case State::kV3Hello: {
        const std::size_t take =
            std::min(data.size(), sizeof(hello_body_) - have_);
        std::memcpy(hello_body_ + have_, data.data(), take);
        have_ += take;
        if (have_ == sizeof(hello_body_)) {
          hello_.min_version = hello_body_[0];
          hello_.max_version = hello_body_[1];
          hello_.dict_max_entries =
              load<std::uint32_t>(hello_body_ + 2, ByteOrder::kBig);
          hello_.dict_max_bytes =
              load<std::uint32_t>(hello_body_ + 6, ByteOrder::kBig);
          hello_.transforms = hello_body_[10];
          hello_.auth = hello_body_[11];
          if (hello_.min_version > hello_.max_version) {
            throw TransportError("Hello with an empty version range");
          }
          state_ = State::kHelloReady;
        }
        return take;
      }
      case State::kV3Flags: {
        flags_ = data[0];
        if ((flags_ & ~v3flags::kAllKnown) != 0) {
          throw TransportError("unknown v3 message flags");
        }
        state_ = State::kCtLen;
        ct_len_ = 0;
        vls_shift_ = 0;
        vls_bytes_ = 0;
        return 1;
      }
      case State::kCtLen: {
        const std::uint8_t b = data[0];
        ct_len_ |= static_cast<std::uint64_t>(b & 0x7F) << vls_shift_;
        vls_shift_ += 7;
        ++vls_bytes_;
        if ((b & 0x80) == 0) {
          if (ct_len_ > limits_.max_content_type_bytes) {
            throw TransportError("content type unreasonably long");
          }
          message_.content_type.clear();
          message_.content_type.reserve(static_cast<std::size_t>(ct_len_));
          state_ = ct_len_ == 0 ? after_content_type() : State::kCtBytes;
          have_ = 0;
        } else if (vls_bytes_ == kMaxVlsBytes) {
          throw TransportError("malformed frame VLS");
        }
        return 1;
      }
      case State::kCtBytes: {
        const std::size_t want =
            static_cast<std::size_t>(ct_len_) - message_.content_type.size();
        const std::size_t take = std::min(data.size(), want);
        message_.content_type.append(
            reinterpret_cast<const char*>(data.data()), take);
        if (message_.content_type.size() == ct_len_) {
          state_ = after_content_type();
          have_ = 0;
        }
        return take;
      }
      case State::kLen: {
        const std::size_t take = std::min(data.size(), std::size_t{8} - have_);
        std::memcpy(len_be_ + have_, data.data(), take);
        have_ += take;
        if (have_ == 8) {
          const std::uint64_t payload_len =
              load<std::uint64_t>(len_be_, ByteOrder::kBig);
          // Cap check BEFORE sizing any buffer, exactly like read_frame.
          if (payload_len > limits_.max_message_bytes) {
            throw TransportError(
                "frame payload of " + std::to_string(payload_len) +
                " bytes exceeds the " +
                std::to_string(limits_.max_message_bytes) +
                "-byte message limit");
          }
          payload_len_ = static_cast<std::size_t>(payload_len);
          if (pool_ != nullptr) {
            message_.payload = pool_->acquire(payload_len_);
          } else {
            message_.payload.reserve(payload_len_);
          }
          state_ = payload_len_ == 0 ? State::kReady : State::kPayload;
        }
        return take;
      }
      case State::kPayload: {
        const std::size_t want = payload_len_ - message_.payload.size();
        const std::size_t take = std::min(data.size(), want);
        message_.payload.insert(message_.payload.end(), data.data(),
                                data.data() + take);
        if (message_.payload.size() == payload_len_) state_ = State::kReady;
        return take;
      }
      case State::kChunkHdr: {
        const std::size_t take =
            std::min(data.size(), sizeof(chunk_hdr_) - have_);
        std::memcpy(chunk_hdr_ + have_, data.data(), take);
        have_ += take;
        if (have_ == sizeof(chunk_hdr_)) {
          const std::uint64_t len =
              load<std::uint64_t>(chunk_hdr_ + 1, ByteOrder::kBig);
          if (auth_ != nullptr && auth_verified_ &&
              chunk_hdr_[0] != static_cast<std::uint8_t>(ChunkKind::kEnd)) {
            // The trailer must be the last chunk before End; anything
            // after it is outside the signature.
            throw TransportError("chunk after the auth trailer");
          }
          switch (chunk_hdr_[0]) {
            case static_cast<std::uint8_t>(ChunkKind::kData):
              chunk_kind_ = ChunkKind::kData;
              if (len > limits_.max_chunk_bytes) {
                throw TransportError("chunk of " + std::to_string(len) +
                                     " bytes exceeds the chunk limit");
              }
              if (len > limits_.max_stream_bytes - stream_total_) {
                throw TransportError(
                    "chunked stream exceeds the stream limit");
              }
              stream_total_ += len;
              break;
            case static_cast<std::uint8_t>(ChunkKind::kPatch):
              chunk_kind_ = ChunkKind::kPatch;
              if (len > limits_.max_chunk_bytes) {
                throw TransportError("patch chunk exceeds the chunk limit");
              }
              break;
            case static_cast<std::uint8_t>(ChunkKind::kCompressedData):
              chunk_kind_ = ChunkKind::kCompressedData;
              // Wire-byte cap here; the decompressed size is capped (and
              // added to the stream total) when the chunk is taken.
              if (len > limits_.max_chunk_bytes) {
                throw TransportError("chunk of " + std::to_string(len) +
                                     " bytes exceeds the chunk limit");
              }
              break;
            case static_cast<std::uint8_t>(ChunkKind::kAuth):
              chunk_kind_ = ChunkKind::kAuth;
              if (auth_ == nullptr) {
                throw TransportError(
                    "auth chunk on an unauthenticated stream");
              }
              if (len != 1 + auth_->tag_size()) {
                throw TransportError("malformed auth trailer");
              }
              break;
            case static_cast<std::uint8_t>(ChunkKind::kEnd):
              chunk_kind_ = ChunkKind::kEnd;
              if (len != 8) throw TransportError("malformed end chunk");
              break;
            default:
              throw TransportError("unknown chunk kind " +
                                   std::to_string(chunk_hdr_[0]));
          }
          // The cap check above already ran; the pool never sees a
          // hostile length.
          chunk_len_ = static_cast<std::size_t>(len);
          if (pool_ != nullptr && chunk_kind_ != ChunkKind::kEnd) {
            chunk_ = pool_->acquire(chunk_len_);
            chunk_.clear();
          } else {
            chunk_.clear();
            chunk_.reserve(chunk_len_);
          }
          state_ =
              chunk_len_ == 0 ? State::kChunkReady : State::kChunkBody;
          have_ = 0;
        }
        return take;
      }
      case State::kChunkBody: {
        const std::size_t want = chunk_len_ - chunk_.size();
        const std::size_t take = std::min(data.size(), want);
        chunk_.insert(chunk_.end(), data.data(), data.data() + take);
        if (chunk_.size() == chunk_len_) {
          if (chunk_kind_ == ChunkKind::kAuth) {
            // Verify the moment the trailer completes — every prior chunk
            // has already been taken (feed() stalls on kChunkReady), so
            // the receive-side MAC is caught up. The trailer never
            // surfaces: rearm straight to the next chunk header.
            verify_auth_trailer();
            chunk_.clear();
            state_ = State::kChunkHdr;
            have_ = 0;
            return take;
          }
          if (chunk_kind_ == ChunkKind::kEnd) {
            if (auth_ != nullptr && !auth_verified_) {
              if (auth_stats_.tag_failures != nullptr) {
                auth_stats_.tag_failures->add();
              }
              throw TransportError(
                  "stream ended without an authentication trailer");
            }
            if (load<std::uint64_t>(chunk_.data(), ByteOrder::kBig) !=
                stream_total_) {
              throw TransportError("chunked stream total mismatch");
            }
          }
          state_ = State::kChunkReady;
        }
        return take;
      }
      case State::kReady:
      case State::kChunkReady:
      case State::kHelloReady:
        return 0;
    }
    return 0;  // unreachable
  }

  /// Where the header hands off: v1 reads a payload length, v2 reads
  /// chunks. Entering the chunk path marks the stream live (and rewinds
  /// the per-stream authenticator on an authenticated connection).
  State after_content_type() {
    if (version_ != kFrameVersionChunked) return State::kLen;
    streaming_ = true;
    stream_total_ = 0;
    auth_verified_ = false;
    if (auth_ != nullptr) auth_->init();
    return State::kChunkHdr;
  }

  /// Check the completed Auth trailer in chunk_ (algo byte + tag) against
  /// the absorbed chunk sequence; throws TransportError on any mismatch.
  void verify_auth_trailer() {
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = chunk_[0] == auth_algo_;
    std::uint8_t expected[kMaxAuthTagBytes];
    const std::size_t tag_size = auth_->tag_size();
    auth_finalize_tag(*auth_, stream_total_,
                      std::span<std::uint8_t>(expected, tag_size));
    ok = constant_time_equal(
             std::span<const std::uint8_t>(chunk_.data() + 1, tag_size),
             {expected, tag_size}) &&
         ok;
    if (auth_stats_.verify_ns != nullptr) {
      auth_stats_.verify_ns->add(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - t0)
              .count()));
    }
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
  std::uint8_t fixed_[5]{};
  std::uint8_t len_be_[8]{};
  // v3 handshake/flags state.
  std::uint8_t hello_body_[12]{};
  HelloFrame hello_;
  std::uint8_t flags_ = 0;
  std::uint8_t transforms_ = 0;
  // Stream authentication (negotiated connections only).
  StreamAuthenticator* auth_ = nullptr;
  std::uint8_t auth_algo_ = 0;
  AuthStats auth_stats_{};
  bool auth_verified_ = false;
  std::size_t have_ = 0;
  std::uint64_t ct_len_ = 0;
  int vls_shift_ = 0;
  std::size_t vls_bytes_ = 0;
  std::size_t payload_len_ = 0;
  soap::WireMessage message_;
  // v2 chunk state.
  std::uint8_t version_ = kFrameVersion;
  std::uint8_t chunk_hdr_[9]{};
  ChunkKind chunk_kind_ = ChunkKind::kData;
  std::size_t chunk_len_ = 0;
  std::uint64_t stream_total_ = 0;
  std::vector<std::uint8_t> chunk_;
  bool streaming_ = false;
};

template <FrameStream S>
soap::WireMessage read_frame(S& stream, const FrameLimits& limits = {},
                             BufferPool* pool = nullptr) {
  return read_frame_body(stream, read_frame_start(stream, limits), limits,
                         pool);
}

}  // namespace bxsoap::transport
