// AnySoapEngine — the virtual-dispatch twin of SoapEngine.
//
// This class exists for one reason: to measure what the paper's
// compile-time policy binding actually buys. It routes every policy
// operation through an abstract interface (one heap-allocated model per
// policy, one virtual call per operation), which is the conventional
// object-oriented alternative the paper argues against.
// bench_ablation_engine compares the two on identical traffic.
#pragma once

#include <memory>

#include "soap/binding.hpp"
#include "soap/encoding.hpp"
#include "soap/envelope.hpp"

namespace bxsoap::soap {

/// Runtime-polymorphic encoding interface: the unified Encoding concept's
/// three operations, virtualized, nothing else. Every engine and server
/// dispatches through this one surface.
class AnyEncoding {
 public:
  virtual ~AnyEncoding() = default;
  /// The single source of the media type: a view of the policy's static
  /// string, valid for the program's lifetime. Consumers (framing, HTTP
  /// headers) take the view; nothing re-derives or re-copies it per
  /// message.
  virtual std::string_view content_type() const = 0;

  /// Serialize by appending to `out` (a pooled buffer, possibly holding a
  /// reserved frame header).
  virtual void serialize_into(const xdm::Document& doc,
                              ByteWriter& out) const = 0;

  /// Deserialize from a shared wire buffer; policies that support zero-copy
  /// views keep `wire` alive through the tree.
  virtual xdm::DocumentPtr deserialize_shared(
      const SharedBuffer& wire) const = 0;

  /// Forward codec tallies to the wrapped policy when it supports them
  /// (BxsaEncoding does); a no-op for encodings with nothing to count.
  virtual void set_codec_stats(obs::CodecStats*) {}

  /// Streaming production (soap::StreamingEncoding) when the wrapped
  /// policy supports it; null for tree-only encodings — callers fall back
  /// to the materialized path.
  virtual std::unique_ptr<bxsa::StreamWriter> make_stream_writer(
      std::size_t /*chunk_bytes*/, BufferPool& /*pool*/,
      bxsa::ChunkSink /*sink*/) const {
    return nullptr;
  }

  /// Type-erase any unified encoding policy.
  template <Encoding E>
  static std::unique_ptr<AnyEncoding> from(E enc) {
    struct Model final : AnyEncoding {
      explicit Model(E e) : enc(std::move(e)) {}
      std::string_view content_type() const override {
        return E::content_type();
      }
      void serialize_into(const xdm::Document& doc,
                          ByteWriter& out) const override {
        enc.serialize_into(doc, out);
      }
      xdm::DocumentPtr deserialize_shared(
          const SharedBuffer& wire) const override {
        return enc.deserialize_shared(wire);
      }
      void set_codec_stats(obs::CodecStats* stats) override {
        if constexpr (requires { enc.set_codec_stats(stats); }) {
          enc.set_codec_stats(stats);
        }
      }
      std::unique_ptr<bxsa::StreamWriter> make_stream_writer(
          std::size_t chunk_bytes, BufferPool& pool,
          bxsa::ChunkSink sink) const override {
        if constexpr (StreamingEncoding<E>) {
          return std::make_unique<bxsa::StreamWriter>(
              enc.make_stream_writer(chunk_bytes, pool, std::move(sink)));
        } else {
          return nullptr;
        }
      }
      E enc;
    };
    return std::make_unique<Model>(std::move(enc));
  }
};

/// Runtime-polymorphic binding interface.
class AnyBinding {
 public:
  virtual ~AnyBinding() = default;
  virtual void send_request(WireMessage m) = 0;
  virtual WireMessage receive_response() = 0;
  virtual WireMessage receive_request() = 0;
  virtual void send_response(WireMessage m) = 0;

  template <BindingPolicy B>
  static std::unique_ptr<AnyBinding> from(B bind) {
    struct Model final : AnyBinding {
      explicit Model(B b) : bind(std::move(b)) {}
      void send_request(WireMessage m) override {
        bind.send_request(std::move(m));
      }
      WireMessage receive_response() override {
        return bind.receive_response();
      }
      WireMessage receive_request() override { return bind.receive_request(); }
      void send_response(WireMessage m) override {
        bind.send_response(std::move(m));
      }
      B bind;
    };
    return std::make_unique<Model>(std::move(bind));
  }
};

/// The dynamic engine: same API surface as SoapEngine, policies picked at
/// runtime.
class AnySoapEngine {
 public:
  AnySoapEngine(std::unique_ptr<AnyEncoding> encoding,
                std::unique_ptr<AnyBinding> binding)
      : encoding_(std::move(encoding)), binding_(std::move(binding)) {}

  /// Same recycling contract as SoapEngine::set_buffer_pool.
  void set_buffer_pool(BufferPool& pool) noexcept { pool_ = &pool; }

  SoapEnvelope call(SoapEnvelope request) {
    binding_->send_request(encode(request));
    return decode(binding_->receive_response());
  }

  /// One-way MEP: encode and send without waiting for a response.
  void call_oneway(SoapEnvelope request) {
    binding_->send_request(encode(request));
  }

  SoapEnvelope receive_request() { return decode(binding_->receive_request()); }

  void send_response(SoapEnvelope response) {
    binding_->send_response(encode(response));
  }

 private:
  WireMessage encode(const SoapEnvelope& env) const {
    WireMessage m;
    m.content_type = encoding_->content_type();
    ByteWriter w(*pool_, 256);
    encoding_->serialize_into(env.document(), w);
    m.payload = w.take();
    return m;
  }

  SoapEnvelope decode(WireMessage m) const {
    SharedBuffer wire = SharedBuffer::adopt(std::move(m.payload), pool_);
    return SoapEnvelope(encoding_->deserialize_shared(wire));
  }

  std::unique_ptr<AnyEncoding> encoding_;
  std::unique_ptr<AnyBinding> binding_;
  BufferPool* pool_ = &BufferPool::global();
};

}  // namespace bxsoap::soap
