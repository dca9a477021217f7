// CompressedEncoding<Inner> — an encoding policy COMBINATOR.
//
// The paper's §5 argues the policy design handles "the combinatorial
// problem of the encoding/binding scheme"; this adapter is the proof by
// construction: it wraps ANY encoding policy with LZSS compression and is
// itself a valid encoding policy, so
//
//   SoapEngine<CompressedEncoding<XmlEncoding>,  HttpClientBinding>
//   SoapEngine<CompressedEncoding<BxsaEncoding>, TcpClientBinding>
//
// both type-check with zero changes to the engine. Textual XML compresses
// dramatically (its redundancy is the paper's Table 1 overhead); BXSA
// barely compresses, quantifying how little slack the binary format leaves.
#pragma once

#include <array>

#include "common/lzss.hpp"
#include "soap/encoding.hpp"

namespace bxsoap::soap {

namespace detail {

/// The inner encoding's subtype tail, for embedding in a compound content
/// type: "application/bxsa" -> "bxsa", "text/xml; charset=utf-8" -> "xml".
constexpr std::string_view lzss_suffix(std::string_view ct) {
  if (const auto semi = ct.find(';'); semi != std::string_view::npos) {
    ct = ct.substr(0, semi);
  }
  if (const auto slash = ct.find('/'); slash != std::string_view::npos) {
    ct = ct.substr(slash + 1);
  }
  if (ct.starts_with("x-")) ct = ct.substr(2);
  return ct;
}

}  // namespace detail

template <LegacyEncoding Inner>
class CompressedEncoding {
  // The advertised type names BOTH layers — the lzss transform and the
  // inner encoding it wraps — so a receiver (and the idempotent-response
  // cache, which keys on content type) can never confuse compressed XML
  // with compressed BXSA.
  static constexpr std::string_view kCtPrefix = "application/x-lzss+";
  static constexpr std::string_view kCtSuffix =
      detail::lzss_suffix(Inner::content_type());
  static constexpr auto kContentType = [] {
    std::array<char, kCtPrefix.size() + kCtSuffix.size()> buf{};
    std::size_t i = 0;
    for (const char c : kCtPrefix) buf[i++] = c;
    for (const char c : kCtSuffix) buf[i++] = c;
    return buf;
  }();

 public:
  static constexpr std::string_view content_type() {
    return {kContentType.data(), kContentType.size()};
  }

  CompressedEncoding() = default;
  explicit CompressedEncoding(Inner inner) : inner_(std::move(inner)) {}

  std::vector<std::uint8_t> serialize(const xdm::Document& doc) const {
    return lzss_compress(inner_.serialize(doc));
  }

  xdm::DocumentPtr deserialize(std::span<const std::uint8_t> bytes) const {
    const auto raw = lzss_decompress(bytes);
    return inner_.deserialize(raw);
  }

  // Unified-concept surface. Compression inherently re-buffers (the LZSS
  // pass reads the whole serialization), so these copy.
  void serialize_into(const xdm::Document& doc, ByteWriter& out) const {
    const std::vector<std::uint8_t> bytes = serialize(doc);
    out.write_bytes(bytes.data(), bytes.size());
  }

  xdm::DocumentPtr deserialize_shared(const SharedBuffer& wire) const {
    return deserialize(wire.bytes());
  }

 private:
  Inner inner_;
};

static_assert(Encoding<CompressedEncoding<XmlEncoding>>);
static_assert(Encoding<CompressedEncoding<BxsaEncoding>>);
static_assert(CompressedEncoding<XmlEncoding>::content_type() ==
              "application/x-lzss+xml");
static_assert(CompressedEncoding<BxsaEncoding>::content_type() ==
              "application/x-lzss+bxsa");

}  // namespace bxsoap::soap
