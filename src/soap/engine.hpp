// The generic SOAP engine (paper §5).
//
//   template <class EncodingPolicy, class BindingPolicy>
//   class SoapEngine { ... };
//
// Policies are plugged in as template parameters and bound at COMPILE time:
// the four encoding x binding combinations of the paper —
//
//   SoapEngine<XmlEncoding,  HttpBinding>  soapXML;   // the classic stack
//   SoapEngine<BxsaEncoding, TcpBinding>   soapBin;   // the fast stack
//   SoapEngine<XmlEncoding,  TcpBinding>   ...
//   SoapEngine<BxsaEncoding, HttpBinding>  ...
//
// — all type-check against the same engine, no virtual dispatch on the hot
// path. A third parameter adds the MessageSecurity policy the paper
// sketches (envelope apply/verify plus a streaming stream_auth() offer); a
// fourth adds observability (obs/observer.hpp): NullObserver by default,
// which compiles to zero instrumentation, or MetricsObserver to get the
// per-stage timing breakdown the paper's §6 measurements are made of.
//
// For the ablation quantifying what compile-time binding buys, see
// soap/any_engine.hpp, a deliberately virtual twin of this class.
#pragma once

#include <functional>
#include <utility>

#include "common/buffer_pool.hpp"
#include "obs/observer.hpp"
#include "soap/binding.hpp"
#include "soap/encoding.hpp"
#include "soap/envelope.hpp"
#include "soap/security.hpp"

namespace bxsoap::soap {

using obs::NullObserver;  // the default fourth policy, re-exported

template <Encoding Enc, BindingPolicy Binding,
          MessageSecurity Security = NoSecurity,
          obs::ObserverPolicy Observer = NullObserver>
class SoapEngine {
 public:
  using HandlerFn = std::function<SoapEnvelope(SoapEnvelope)>;

  explicit SoapEngine(Enc encoding = {}, Binding binding = {},
                      Security security = {}, Observer observer = {})
      : encoding_(std::move(encoding)),
        binding_(std::move(binding)),
        security_(std::move(security)),
        observer_(std::move(observer)) {
    // A policy with a non-empty stream_auth() arms the binding's chunked
    // path (when the binding has one): streams are signed and verified
    // incrementally under the same key material as envelope signatures.
    // NoSecurity returns an empty offer, so this compiles away to nothing.
    if constexpr (requires { binding_.enable_stream_auth(
                      transport::StreamAuth{}); }) {
      if (transport::StreamAuth auth = security_.stream_auth()) {
        binding_.enable_stream_auth(std::move(auth));
      }
    }
  }

  Enc& encoding() { return encoding_; }
  Binding& binding() { return binding_; }
  Security& security() { return security_; }
  Observer& observer() { return observer_; }

  /// Buffer recycling for encode (output vectors) and decode (received
  /// payloads returned to the pool once the decoded tree drops its last
  /// view). Defaults to the process-wide pool; never null.
  void set_buffer_pool(BufferPool& pool) noexcept { pool_ = &pool; }
  BufferPool& buffer_pool() noexcept { return *pool_; }

  // ---- client side ----------------------------------------------------------

  /// Request-response message exchange pattern. Faults come back as fault
  /// envelopes; call resp.throw_if_fault() to turn them into exceptions.
  SoapEnvelope call(SoapEnvelope request) {
    send_request(std::move(request));
    SoapEnvelope response = receive_response();
    observer_.count_exchange();
    return response;
  }

  /// Streaming request-response MEP, for messages too large to
  /// materialize. `produce(bxsa::StreamWriter&)` pushes the request as
  /// events — the writer flushes ~chunk_bytes pooled buffers to the wire
  /// as they fill, so peak memory is chunks, not the message. `consume`
  /// receives the response as a pull-based chunk stream
  /// (transport::StreamRequest — duck-typed here so the soap layer names
  /// no transport types; the binding must provide stream_exchange, e.g.
  /// transport::TcpClientBinding). Envelope-level apply/verify does not
  /// run — there is never a whole envelope to sign — but on a channel
  /// that negotiated the security policy's stream_auth() offer, the
  /// exchange is protected end-to-end by per-chunk authentication with an
  /// Auth trailer each way (FORMAT.md): the binding signs request chunks
  /// as they flush and verifies the response incrementally before its
  /// final chunk is surfaced to `consume`.
  template <typename Produce, typename Consume>
    requires StreamingEncoding<Enc>
  void call_streamed(Produce&& produce, Consume&& consume,
                     std::size_t chunk_bytes = std::size_t{1} << 20) {
    binding_.stream_exchange(
        Enc::content_type(), chunk_bytes,
        [&](auto& tx) {
          bxsa::StreamWriter writer = encoding_.make_stream_writer(
              chunk_bytes, *pool_, [&tx](std::vector<std::uint8_t> bytes) {
                tx.write_data(std::move(bytes));
              });
          produce(writer);
          tx.finish_stream(writer);
        },
        [&](auto& rx) { consume(rx); });
    observer_.count_exchange();
  }

  /// One-way MEP: fire and forget.
  void send_request(SoapEnvelope request) {
    {
      obs::StageTimer<Observer> t(observer_, obs::Stage::kSecurity);
      security_.apply(request);
    }
    if constexpr (BorrowingEncoding<Enc> && GatherBinding<Binding>) {
      if (binding_.sends_gathered()) {
        // The large arrays leave straight from `request`, which outlives
        // the synchronous send.
        GatherMessage m = encode_gathered(request);
        obs::StageTimer<Observer> t(observer_, obs::Stage::kSend);
        binding_.send_request(std::move(m));
        return;
      }
    }
    WireMessage m = encode(request);
    obs::StageTimer<Observer> t(observer_, obs::Stage::kSend);
    binding_.send_request(std::move(m));
  }

  SoapEnvelope receive_response() {
    WireMessage raw = timed_receive([this] {
      return binding_.receive_response();
    });
    SoapEnvelope env = decode(std::move(raw));
    // Faults are not signed (the fault path must not require the requester's
    // security context); everything else is verified.
    if (env.is_fault()) {
      observer_.count_fault();
    } else {
      obs::StageTimer<Observer> t(observer_, obs::Stage::kSecurity);
      security_.verify(env);
    }
    return env;
  }

  // ---- server side ----------------------------------------------------------

  SoapEnvelope receive_request() {
    WireMessage raw = timed_receive([this] {
      return binding_.receive_request();
    });
    SoapEnvelope env = decode(std::move(raw));
    obs::StageTimer<Observer> t(observer_, obs::Stage::kSecurity);
    security_.verify(env);
    return env;
  }

  void send_response(SoapEnvelope response) {
    if (response.is_fault()) {
      observer_.count_fault();
    } else {
      obs::StageTimer<Observer> t(observer_, obs::Stage::kSecurity);
      security_.apply(response);
    }
    WireMessage m = encode(response);
    obs::StageTimer<Observer> t(observer_, obs::Stage::kSend);
    binding_.send_response(std::move(m));
  }

  /// One full server exchange: receive, dispatch, respond. Exceptions from
  /// the handler (and security verification failures) become SOAP faults
  /// rather than crashing the server loop.
  void serve_once(const HandlerFn& handler) {
    WireMessage raw = timed_receive([this] {
      return binding_.receive_request();
    });
    SoapEnvelope response = [&]() -> SoapEnvelope {
      try {
        SoapEnvelope request = decode(std::move(raw));
        {
          obs::StageTimer<Observer> t(observer_, obs::Stage::kSecurity);
          security_.verify(request);
        }
        obs::StageTimer<Observer> t(observer_, obs::Stage::kHandler);
        return handler(std::move(request));
      } catch (const SoapFaultError& e) {
        return SoapEnvelope::make_fault({e.code(), e.reason(), ""});
      } catch (const DecodeError& e) {
        // The peer sent bytes we could not decode — the client's fault,
        // answered in-band (the same taxonomy as the SOAP server).
        return SoapEnvelope::make_fault({"soap:Client", e.what(), ""});
      } catch (const std::exception& e) {
        return SoapEnvelope::make_fault({"soap:Server", e.what(), ""});
      }
    }();
    send_response(std::move(response));
    observer_.count_exchange();
  }

 private:
  WireMessage encode(const SoapEnvelope& env) {
    WireMessage m;
    m.content_type = std::string(Enc::content_type());
    {
      obs::StageTimer<Observer> t(observer_, obs::Stage::kSerialize);
      // Serialize straight into a recycled buffer instead of letting the
      // policy allocate a fresh vector per message.
      ByteWriter w(*pool_, 256);
      encoding_.serialize_into(env.document(), w);
      m.payload = w.take();
    }
    observer_.stage_bytes(obs::Stage::kSerialize, m.payload.size());
    return m;
  }

  /// encode() that borrows the envelope's large packed arrays instead of
  /// copying them: only their framing lands in the pooled buffer.
  GatherMessage encode_gathered(const SoapEnvelope& env) {
    GatherMessage m;
    m.content_type = Enc::content_type();
    {
      obs::StageTimer<Observer> t(observer_, obs::Stage::kSerialize);
      ByteWriter w(*pool_, 256);
      encoding_.serialize_borrowed(env.document(), w, m.runs);
      m.framing = w.take();
    }
    observer_.stage_bytes(obs::Stage::kSerialize, m.payload_size());
    return m;
  }

  SoapEnvelope decode(WireMessage m) {
    observer_.stage_bytes(obs::Stage::kDeserialize, m.payload.size());
    obs::StageTimer<Observer> t(observer_, obs::Stage::kDeserialize);
    // Share the payload with the decoded tree: packed arrays decode as
    // views, and the buffer recycles into the pool when the last view
    // (or this call frame) lets go.
    SharedBuffer wire = SharedBuffer::adopt(std::move(m.payload), pool_);
    return SoapEnvelope(encoding_.deserialize_shared(wire));
  }

  template <typename ReceiveOp>
  WireMessage timed_receive(ReceiveOp&& op) {
    obs::StageTimer<Observer> t(observer_, obs::Stage::kReceive);
    return op();
  }

  Enc encoding_;
  Binding binding_;
  Security security_;
  Observer observer_;
  BufferPool* pool_ = &BufferPool::global();
};

}  // namespace bxsoap::soap
