// Encoding policies: how a SOAP envelope's bXDM document becomes octets.
//
// A policy is any type modeling THE Encoding concept below; the generic
// engine binds one at compile time ("because the binding is at compile
// time, compiler optimizations are not impacted, and inlining is still
// enabled"). Two models ship by default, exactly as in the paper:
// XmlEncoding (XML 1.0) and BxsaEncoding (binary XML).
//
// History note: PRs 1-4 grew three overlapping concepts (EncodingPolicy,
// AppendSerializeEncoding, SharedDeserializeEncoding) plus per-engine
// if-constexpr fallbacks. They are collapsed here into ONE surface —
// append-serialize and shared-buffer deserialize, the forms every engine
// actually runs — with LegacyEncodingAdapter lifting old whole-buffer
// policies onto it.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "bxsa/decoder.hpp"
#include "bxsa/encoder.hpp"
#include "bxsa/stream_writer.hpp"
#include "xdm/node.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace bxsoap::soap {

/// The unified encoding concept. Three requirements, no optional tiers:
///
///   * content_type() — static; the media type the bytes travel under.
///   * serialize_into(doc, w) — APPEND the serialization to a ByteWriter
///     (typically a pooled buffer with a frame header reserved up front).
///   * deserialize_shared(wire) — decode from a shared wire buffer; the
///     decoded tree may keep zero-copy views pinned into it.
///
/// A policy with nothing to gain from pooling or sharing just appends to
/// the writer and ignores the sharing (see XmlEncoding) — the fallback
/// lives in the policy, once, instead of in every engine.
template <typename E>
concept Encoding = requires(const E e, const xdm::Document& d, ByteWriter& w,
                            const SharedBuffer& wire) {
  { E::content_type() } -> std::convertible_to<std::string_view>;
  { e.serialize_into(d, w) } -> std::same_as<void>;
  { e.deserialize_shared(wire) } -> std::same_as<xdm::DocumentPtr>;
};

/// The pre-unification surface: whole-buffer serialize()/deserialize().
/// Kept only as the gate for LegacyEncodingAdapter; engines no longer
/// accept it directly.
template <typename E>
concept LegacyEncoding = requires(const E e, const xdm::Document& d,
                                  std::span<const std::uint8_t> bytes) {
  { e.serialize(d) } -> std::same_as<std::vector<std::uint8_t>>;
  { e.deserialize(bytes) } -> std::same_as<xdm::DocumentPtr>;
  { E::content_type() } -> std::convertible_to<std::string_view>;
};

/// Default-adapter lifting a legacy whole-buffer policy onto the unified
/// concept, with the historical copy semantics: serialize then append,
/// deserialize without keeping views. Anything zero-copy needs native
/// support in the policy; this is the compatibility shim.
template <LegacyEncoding L>
class LegacyEncodingAdapter {
 public:
  static constexpr std::string_view content_type() {
    return L::content_type();
  }

  explicit LegacyEncodingAdapter(L inner = {}) : inner_(std::move(inner)) {}

  void serialize_into(const xdm::Document& doc, ByteWriter& out) const {
    const std::vector<std::uint8_t> bytes = inner_.serialize(doc);
    out.write_bytes(bytes.data(), bytes.size());
  }

  xdm::DocumentPtr deserialize_shared(const SharedBuffer& wire) const {
    return inner_.deserialize(wire.bytes());
  }

  L& inner() noexcept { return inner_; }
  const L& inner() const noexcept { return inner_; }

 private:
  L inner_;
};

/// Encodings that can additionally emit a message as a bounded-memory
/// chunk stream (the v2 transfer path, DESIGN.md §11): the policy hands
/// out a bxsa::StreamWriter that flushes pooled ~chunk_bytes buffers into
/// `sink` as the document is produced. Modeled by BxsaEncoding; textual
/// XML has no frame structure to chunk against.
template <typename E>
concept StreamingEncoding =
    Encoding<E> && requires(const E e, std::size_t chunk_bytes,
                            BufferPool& pool, bxsa::ChunkSink sink) {
      {
        e.make_stream_writer(chunk_bytes, pool, std::move(sink))
      } -> std::same_as<bxsa::StreamWriter>;
    };

/// XML 1.0 encoding with explicit type information (SOAP encoding rule:
/// schema-less messages carry xsi:type), re-typed on receive so the
/// application sees the same typed bXDM either way.
class XmlEncoding {
 public:
  static constexpr std::string_view content_type() {
    return "text/xml; charset=utf-8";
  }

  std::vector<std::uint8_t> serialize(const xdm::Document& doc) const {
    ByteWriter out;
    serialize_into(doc, out);
    return out.take();
  }

  void serialize_into(const xdm::Document& doc, ByteWriter& out) const {
    xml::WriteOptions opt;
    opt.emit_type_info = true;
    xml::write_xml(doc, out, opt);
  }

  /// One pass: annotated leaves and arrays are built typed as they are
  /// read (xml::parse_typed_xml), with no untyped tree in between.
  xdm::DocumentPtr deserialize(std::span<const std::uint8_t> bytes) const {
    const std::string_view text(reinterpret_cast<const char*>(bytes.data()),
                                bytes.size());
    return xml::parse_typed_xml(text);
  }

  /// Text holds no packed payloads, so there is nothing to share: decode
  /// the bytes and let the buffer go.
  xdm::DocumentPtr deserialize_shared(const SharedBuffer& wire) const {
    return deserialize(wire.bytes());
  }
};

/// BXSA binary XML encoding.
class BxsaEncoding {
 public:
  static constexpr std::string_view content_type() {
    return "application/bxsa";
  }

  explicit BxsaEncoding(ByteOrder order = host_byte_order())
      : order_(order) {}

  /// Tally codec work (frames by type, symbol-table hits) into `stats`
  /// (obs/metrics.hpp, typically Registry::codec("bxsa")). Null detaches.
  void set_codec_stats(obs::CodecStats* stats) noexcept { stats_ = stats; }

  std::vector<std::uint8_t> serialize(const xdm::Document& doc) const {
    bxsa::EncodeOptions opt;
    opt.order = order_;
    opt.stats = stats_;
    return bxsa::encode(doc, opt);
  }

  xdm::DocumentPtr deserialize(std::span<const std::uint8_t> bytes) const {
    return bxsa::decode_document(bytes, stats_);
  }

  void serialize_into(const xdm::Document& doc, ByteWriter& out) const {
    bxsa::EncodeOptions opt;
    opt.order = order_;
    opt.stats = stats_;
    bxsa::encode_append(doc, out, opt);
  }

  /// Zero-copy decode: packed arrays stay views into `wire`, pinned per
  /// node, so the document outliving `wire`'s other references is safe.
  xdm::DocumentPtr deserialize_shared(const SharedBuffer& wire) const {
    return bxsa::decode_message(wire, stats_).document;
  }

  /// Streaming production (StreamingEncoding): a StreamWriter that flushes
  /// pooled ~chunk_bytes buffers into `sink` as events are pushed.
  bxsa::StreamWriter make_stream_writer(std::size_t chunk_bytes,
                                        BufferPool& pool,
                                        bxsa::ChunkSink sink) const {
    return bxsa::StreamWriter(order_, chunk_bytes, pool, std::move(sink));
  }

 private:
  ByteOrder order_;
  obs::CodecStats* stats_ = nullptr;
};

static_assert(Encoding<XmlEncoding>);
static_assert(Encoding<BxsaEncoding>);
static_assert(LegacyEncoding<XmlEncoding>);
static_assert(LegacyEncoding<BxsaEncoding>);
static_assert(Encoding<LegacyEncodingAdapter<XmlEncoding>>);
static_assert(!StreamingEncoding<XmlEncoding>);
static_assert(StreamingEncoding<BxsaEncoding>);

}  // namespace bxsoap::soap
