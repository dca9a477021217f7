// Message security — the paper's "it will be straightforward to introduce
// more policies (e.g., a security policy) into the generic engine by just
// adding more template parameters" made concrete, redesigned streaming-
// first (PR 10).
//
// A MessageSecurity policy is the engine's ONE security hook, and it works
// at two levels:
//
//   * Envelope level (the materialized special case): apply(env) right
//     before encoding, verify(env) right after decoding. This is the
//     classic WS-Security shape — a header block carrying a keyed MAC of
//     the Body's canonical XML — and it covers every v1 framed exchange.
//   * Stream level: stream_auth() returns the policy's transport::
//     StreamAuth offer. When a BXTP v3 channel negotiates an algorithm,
//     every chunked stream on it carries an Auth trailer (FORMAT.md):
//     the framing layer drives a ChunkAuthenticator incrementally as
//     chunks flush / arrive, so a signed 256 MiB transfer never
//     materializes and verification overlaps reassembly.
//
// NoSecurity compiles away entirely (empty apply/verify, empty offer).
// BodyDigestSignature signs both levels with HMAC-SHA-256 under one
// shared key. The FNV-1a demonstration digest survives only as a
// test-only stream algorithm for differential tests.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "common/hmac_sha256.hpp"
#include "soap/envelope.hpp"
#include "transport/auth.hpp"
#include "xml/writer.hpp"

namespace bxsoap::soap {

/// The static shape of an incremental stream authenticator: init →
/// update(bytes) per chunk in wire order → finalize(tag). The concrete
/// classes below satisfy it; transport::StreamAuthenticator is its
/// type-erased runtime twin (framing negotiates algorithms at runtime, so
/// the wire layer drives the erased interface).
template <typename A>
concept ChunkAuthenticator =
    requires(A a, const A ca, std::span<const std::uint8_t> in,
             std::span<std::uint8_t> out) {
      { a.init() } -> std::same_as<void>;
      { a.update(in) } -> std::same_as<void>;
      { ca.tag_size() } -> std::convertible_to<std::size_t>;
      { a.finalize(out) } -> std::same_as<void>;
    };

/// What the generic engine requires of its Security template parameter.
template <typename S>
concept MessageSecurity = requires(const S s, SoapEnvelope& env) {
  { s.apply(env) } -> std::same_as<void>;
  { s.verify(env) } -> std::same_as<void>;
  { s.stream_auth() } -> std::convertible_to<transport::StreamAuth>;
};

/// The default: no security processing at all, at either level. Every
/// hook is an empty inline body, so the instantiated engine is
/// byte-identical to one with no security parameter (pinned by
/// bench_ablation_engine).
class NoSecurity {
 public:
  void apply(SoapEnvelope&) const {}
  void verify(SoapEnvelope&) const {}
  transport::StreamAuth stream_auth() const { return {}; }
};

inline constexpr std::string_view kSecurityUri = "urn:bxsoap:security";

/// HMAC-SHA-256 over a stream's logical chunk sequence (the wire format's
/// canonical MAC input; FORMAT.md §"Auth trailer"). 32-byte tag.
class HmacStreamAuthenticator final : public transport::StreamAuthenticator {
 public:
  explicit HmacStreamAuthenticator(std::string_view key) : mac_(key) {}

  void init() override { mac_.reset(); }
  void update(std::span<const std::uint8_t> data) override {
    mac_.update(data);
  }
  std::size_t tag_size() const override { return HmacSha256::kTagSize; }
  void finalize(std::span<std::uint8_t> out) override { mac_.finalize(out); }

 private:
  HmacSha256 mac_;
};

/// Keyed FNV-1a-64 over the same input sequence. NOT a MAC — kept solely
/// so differential tests can cross-check the framing layer's input
/// sequencing against an independent, trivially-reimplementable digest.
/// Never offer it outside tests.
class FnvStreamAuthenticator final : public transport::StreamAuthenticator {
 public:
  explicit FnvStreamAuthenticator(std::string_view key);

  void init() override { h_ = seed_; }
  void update(std::span<const std::uint8_t> data) override;
  std::size_t tag_size() const override { return 8; }
  void finalize(std::span<std::uint8_t> out) override;

 private:
  std::uint64_t seed_ = 0;
  std::uint64_t h_ = 0;
};

static_assert(ChunkAuthenticator<HmacStreamAuthenticator>);
static_assert(ChunkAuthenticator<FnvStreamAuthenticator>);

/// The production stream-auth offer: HMAC-SHA-256 under `key`.
transport::StreamAuth make_hmac_stream_auth(std::string key);

/// Test-only: FNV-1a-64 (authalgs::kFnv1a64) for differential tests of
/// the framing layer's MAC input sequencing.
transport::StreamAuth make_fnv_stream_auth(std::string key);

/// Keyed MAC over the canonical (typed) XML form of the Body, plus the
/// matching stream-level offer. Because the envelope digest is computed on
/// the bXDM level's canonical serialization, the SAME signature verifies
/// whether the message traveled as textual XML or as BXSA — security
/// composes with either encoding, which is exactly the layering argument
/// of Figure 1. The digest is HMAC-SHA-256; streamed exchanges on a
/// negotiated channel are covered by the equivalent Auth trailer instead
/// of a header block, so neither direction ever materializes.
class BodyDigestSignature {
 public:
  explicit BodyDigestSignature(std::string shared_key)
      : key_(std::move(shared_key)) {}

  /// Adds <sec:Signature xmlns:sec="urn:bxsoap:security">hex</sec:Signature>.
  void apply(SoapEnvelope& env) const;

  /// Recomputes and compares (constant-time); throws SoapFaultError on
  /// mismatch or when the header is missing.
  void verify(SoapEnvelope& env) const;

  /// HMAC-SHA-256 of the Body's canonical typed XML, lowercase hex.
  /// Exposed for tests.
  std::string digest_of(const SoapEnvelope& env) const;

  /// The stream-level half of the policy: HMAC-SHA-256 under the same
  /// shared key.
  transport::StreamAuth stream_auth() const {
    return make_hmac_stream_auth(key_);
  }

 private:
  std::string key_;
};

static_assert(MessageSecurity<NoSecurity>);
static_assert(MessageSecurity<BodyDigestSignature>);

}  // namespace bxsoap::soap
