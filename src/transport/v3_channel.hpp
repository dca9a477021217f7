// One negotiated BXTP v3 connection, as both ends hold it (FORMAT.md
// §"BXTP v3"). The server answers a Hello with negotiate_v3, and a client
// applies it to its own offer and the Accept, so a server can never widen
// what the client offered.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bxsa/dict.hpp"
#include "soap/encoding.hpp"
#include "transport/framing.hpp"

namespace bxsoap::transport {

/// One side's offer, or the effective terms of a negotiated channel.
struct V3Terms {
  bxsa::DictLimits dict{0, 0};  ///< table bounds; 0 entries = no tables
  std::uint8_t transforms = 0;  ///< transforms:: bitmask
  std::uint8_t auth = 0;        ///< authalgs:: bitmask

  /// The stream-auth algorithm the terms resolve to (0 = unsigned).
  std::uint8_t auth_algo() const noexcept { return authalgs::pick(auth); }
};

/// The element-wise min of the table offers and the intersections of the
/// transform and auth offers.
inline V3Terms negotiate_v3(const V3Terms& a, const V3Terms& b) noexcept {
  return {a.dict.min_with(b.dict),
          static_cast<std::uint8_t>(a.transforms & b.transforms),
          static_cast<std::uint8_t>(a.auth & b.auth)};
}

/// What an endpoint lends each of its v3 connections. Channels point at
/// it, so it must not move while one of them lives.
struct V3Endpoint {
  FrameLimits limits{};
  BufferPool* pool = &BufferPool::global();
  CompressPolicy compress_policy{};
  StreamAuth stream_auth{};
  bxsa::DictStats dict_stats{};
  CompressStats compress_stats{};
  AuthStats auth_stats{};
};

/// The terms and the state they imply: the two mirrored symbol tables and
/// the receive-side authenticator. frame() touches only the send table,
/// unframe() and arm(FrameAssembler&) only the receive side, so one thread
/// may send while another receives.
class V3Channel {
 public:
  V3Channel(const V3Terms& terms, const V3Endpoint& endpoint)
      : terms_(terms), ep_(&endpoint) {
    if (terms.dict.max_entries > 0) {
      enc_.emplace(terms.dict);
      dec_.emplace(terms.dict);
    }
  }

  const V3Terms& terms() const noexcept { return terms_; }

  /// Append `payload` as one v3 Message frame. Only plain BXSA payloads
  /// go through the send table; any other content type rides with at
  /// most the compressed flag.
  void frame(ByteWriter& out, std::span<const std::uint8_t> payload,
             std::string_view content_type) {
    std::optional<bxsa::DictEncoder> none;
    frame_v3_payload(
        out, payload, content_type,
        content_type == soap::BxsaEncoding::content_type() ? enc_ : none,
        ep_->dict_stats, terms_.transforms, ep_->compress_policy, ep_->pool,
        ep_->compress_stats);
  }

  /// The inverse of frame(): decompress, then run the payload through the
  /// receive table. A desynced table poisons every later message, so it
  /// is a TransportError: the server cuts the connection, the client's
  /// retry layer redials with fresh tables.
  std::vector<std::uint8_t> unframe(std::vector<std::uint8_t> payload,
                                    std::uint8_t flags) {
    BufferPool& pool = *ep_->pool;
    if ((flags & v3flags::kCompressed) != 0) {
      std::vector<std::uint8_t> plain = decompress_body(
          payload, terms_.transforms, ep_->limits.max_message_bytes, pool);
      pool.release(std::move(payload));
      payload = std::move(plain);
    }
    if ((flags & v3flags::kDictEncoded) == 0) return payload;
    if (!dec_) {
      throw TransportError(
          "dictionary-coded message without a negotiated table");
    }
    ByteWriter plain(pool.acquire(payload.size() + 64));
    try {
      dec_->decode(payload, (flags & v3flags::kDictReset) != 0, plain,
                   ep_->dict_stats);
    } catch (const DecodeError& e) {
      throw TransportError(std::string("dictionary decode failed: ") +
                           e.what());
    }
    pool.release(std::move(payload));
    return plain.take();
  }

  /// Arm a parser of incoming chunk streams: it decompresses and, on a
  /// signed channel, verifies with this channel's receive authenticator.
  void arm(FrameAssembler& parser) {
    parser.set_transforms(terms_.transforms);
    if (terms_.auth_algo() == 0) return;
    if (rx_auth_ == nullptr) rx_auth_ = make_auth();
    parser.set_auth(rx_auth_.get(), terms_.auth_algo(), ep_->auth_stats);
  }

  /// Arm the ChunkEncoder (or ChunkedFrameWriter) of one outgoing stream;
  /// on a signed channel the returned authenticator must outlive it.
  template <typename ChunkWriter>
  [[nodiscard]] std::unique_ptr<StreamAuthenticator> arm(
      ChunkWriter& writer) const {
    writer.set_compression({terms_.transforms, ep_->compress_policy,
                            ep_->pool, ep_->compress_stats});
    if (terms_.auth_algo() == 0) return nullptr;
    std::unique_ptr<StreamAuthenticator> tx = make_auth();
    writer.set_auth(tx.get(), terms_.auth_algo(), ep_->auth_stats);
    return tx;
  }

 private:
  std::unique_ptr<StreamAuthenticator> make_auth() const {
    auto a = ep_->stream_auth.make(terms_.auth_algo());
    if (a != nullptr) return a;
    throw TransportError("stream auth cannot build the negotiated algorithm");
  }

  V3Terms terms_;
  const V3Endpoint* ep_;
  std::optional<bxsa::DictEncoder> enc_;
  std::optional<bxsa::DictDecoder> dec_;
  std::unique_ptr<StreamAuthenticator> rx_auth_;
};

}  // namespace bxsoap::transport
