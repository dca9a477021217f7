// The streaming message API (BXTP v2 chunked transfers).
//
// A materialized handler gets a whole SoapEnvelope and returns one; a
// STREAM handler never sees a whole message. On the server it is pushed
// request chunks one at a time, in wire order, and pushes response chunks
// through a ResponseWriter, so a 256 MiB array round-trips through a
// server whose per-stream residency is a couple of chunk buffers, not the
// message. The client pulls its response through a StreamRequest, where
// blocking is natural (TcpClientBinding::stream_exchange).
//
// The server never blocks a callback: what a callback writes is staged
// whole for the wire, and backpressure works between callbacks — the
// event server stops reading a connection while its stream holds more
// than its residency bound, so a fast sender backs up into its own TCP
// window and nothing else stalls.
//
// Patch records are the price of bounded memory: BXSA's Size and
// child-count fields are backpatched, so chunks already on the wire may
// need fix-ups. Producers ship them in a trailing patch chunk; a consumer
// that materializes applies them at the end; a pass-through consumer
// (echo, relay) forwards them verbatim and never decodes them.
//
// Streaming security is INVISIBLE at this layer by design: on a channel
// that negotiated a stream-auth algorithm (soap::MessageSecurity's
// stream_auth() offer; FORMAT.md §"Auth trailer") the framing layer
// absorbs every chunk a handler sees or produces into a keyed MAC and
// carries the tag in an Auth trailer chunk before End. Verification is
// incremental and completes BEFORE End is surfaced (on_end on the server,
// next() returning nullopt on the client), so a handler that reached the
// end has consumed an authenticated message — a tag mismatch surfaces as
// TransportError, never as truncated-but-plausible data. Handlers and
// these classes need no changes either way.
#pragma once

#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bxsa/stream_writer.hpp"
#include "common/buffer_pool.hpp"
#include "soap/any_engine.hpp"
#include "transport/framing.hpp"

namespace bxsoap::transport {

/// Where a pulled stream's chunks come from (the client's response). next()
/// blocks until a chunk is available and returns nullopt once the end
/// chunk has arrived; it throws TransportError if the connection dies
/// mid-stream.
class StreamSource {
 public:
  virtual ~StreamSource() = default;
  virtual std::optional<StreamChunk> next() = 0;
};

/// Where a ResponseWriter's chunks go: data and patch chunks only, which
/// a ChunkEncoder turns into frames. The client's sink writes them to its
/// socket (blocking while the wire is full); the event server's stages
/// them in the stream's response slot. finish() emits the end chunk.
class StreamSink {
 public:
  virtual ~StreamSink() = default;
  virtual void write(StreamChunk chunk) = 0;
  virtual void finish() = 0;
};

/// A pulled view of an incoming chunked message (the client's response).
///
/// Three consumption styles, cheapest first:
///   * next_chunk(): raw chunks, data and patch alike — a relay forwards
///     them without understanding them.
///   * next_data(): data chunks only; patch chunks are decoded and
///     collected, readable via patches() once the stream ends.
///   * assemble(): materialize everything (data + patches applied) into one
///     SharedBuffer — the escape hatch for handlers that want the tree (or
///     a bxsa::StreamReader) and accept message-sized memory.
class StreamRequest {
 public:
  StreamRequest(std::string content_type, StreamSource& source)
      : content_type_(std::move(content_type)), source_(source) {}

  const std::string& content_type() const noexcept { return content_type_; }

  /// Next chunk verbatim; nullopt at end of stream.
  std::optional<StreamChunk> next_chunk() {
    if (done_) return std::nullopt;
    std::optional<StreamChunk> c = source_.next();
    if (!c) {
      done_ = true;
      return std::nullopt;
    }
    if (c->kind == ChunkKind::kData) data_bytes_ += c->bytes.size();
    return c;
  }

  /// Next DATA chunk; patch chunks are decoded into patches() on the way.
  std::optional<std::vector<std::uint8_t>> next_data() {
    for (;;) {
      std::optional<StreamChunk> c = next_chunk();
      if (!c) return std::nullopt;
      if (c->kind == ChunkKind::kPatch) {
        std::vector<bxsa::PatchRecord> decoded =
            decode_patch_records(c->bytes);
        patches_.insert(patches_.end(), decoded.begin(), decoded.end());
        continue;
      }
      return std::move(c->bytes);
    }
  }

  /// Patches seen so far; complete once next_data()/next_chunk() returned
  /// nullopt. (Producers send them after the last data chunk.)
  std::span<const bxsa::PatchRecord> patches() const noexcept {
    return patches_;
  }

  /// Data bytes pulled so far (the message size once the stream ended).
  std::uint64_t data_bytes() const noexcept { return data_bytes_; }

  bool done() const noexcept { return done_; }

  /// Drain and discard the rest of the stream, recycling chunk buffers
  /// into `pool`. The client calls this after its consumer returns so an
  /// unread response tail cannot desync the connection.
  void drain(BufferPool& pool) {
    while (std::optional<StreamChunk> c = next_chunk()) {
      pool.release(std::move(c->bytes));
    }
  }

  /// Materialize the whole message: concatenate every data chunk, apply
  /// the patch records, share the result. Memory use is the full message —
  /// by calling this the handler opts out of the bounded-memory path (the
  /// stream limits in FrameLimits were already enforced upstream, so the
  /// size is at least capped). Chunk buffers recycle into `pool`.
  SharedBuffer assemble(BufferPool& pool) {
    std::vector<std::uint8_t> all;
    while (std::optional<std::vector<std::uint8_t>> chunk = next_data()) {
      all.insert(all.end(), chunk->begin(), chunk->end());
      pool.release(std::move(*chunk));
    }
    apply_patches(all, patches_);
    return SharedBuffer::adopt(std::move(all), &pool);
  }

 private:
  std::string content_type_;
  StreamSource& source_;
  std::vector<bxsa::PatchRecord> patches_;
  std::uint64_t data_bytes_ = 0;
  bool done_ = false;
};

/// A stream's outgoing half. Two production styles:
///   * pass-through: write_chunk()/write_data()/write_patches(), then
///     finish() — an echo or relay moves pooled buffers straight across.
///   * event-level: make_stream_writer() hands back a chunk-mode
///     bxsa::StreamWriter whose buffers flush through this writer as they
///     fill; finish_stream() collects its patch records and closes.
/// Also drives the CLIENT's request stream (same push surface, other
/// direction) — see TcpClientBinding::stream_exchange.
class ResponseWriter {
 public:
  ResponseWriter(StreamSink& sink, BufferPool& pool, std::size_t chunk_bytes,
                 const soap::AnyEncoding* encoding = nullptr)
      : sink_(sink),
        pool_(pool),
        chunk_bytes_(chunk_bytes),
        encoding_(encoding) {}

  BufferPool& pool() noexcept { return pool_; }
  std::size_t chunk_bytes() const noexcept { return chunk_bytes_; }

  /// Forward one chunk verbatim: data or patch, the kinds a StreamRequest
  /// surfaces. Any other kind is refused before a byte of it is written —
  /// End and the Auth trailer are the stream writer's own, and a
  /// compressed chunk is a wire form of data the writer chooses.
  void write_chunk(StreamChunk chunk) {
    if (chunk.kind != ChunkKind::kData && chunk.kind != ChunkKind::kPatch) {
      throw TransportError("a stream writes only data and patch chunks");
    }
    require_open();
    sink_.write(std::move(chunk));
  }

  void write_data(std::vector<std::uint8_t> bytes) {
    require_open();
    sink_.write(StreamChunk{ChunkKind::kData, std::move(bytes)});
  }

  void write_patches(std::span<const bxsa::PatchRecord> patches) {
    if (patches.empty()) return;
    require_open();
    ByteWriter body(pool_.acquire(patches.size() * 17));
    encode_patch_records(body, patches);
    sink_.write(StreamChunk{ChunkKind::kPatch, body.take()});
  }

  /// A chunk-mode BXSA event writer flushing into this response. Null when
  /// the server's encoding cannot stream (e.g. textual XML) — the handler
  /// should fall back to pass-through or materialized production.
  std::unique_ptr<bxsa::StreamWriter> make_stream_writer() {
    if (encoding_ == nullptr) return nullptr;
    return encoding_->make_stream_writer(
        chunk_bytes_, pool_,
        [this](std::vector<std::uint8_t> b) { write_data(std::move(b)); });
  }

  /// Close an event-level stream: flush the writer's tail, forward its
  /// patch records, end the message.
  void finish_stream(bxsa::StreamWriter& writer) {
    const std::vector<bxsa::PatchRecord> patches = writer.finish();
    write_patches(patches);
    finish();
  }

  /// End the message (pass-through path; forward patches first if any).
  void finish() {
    require_open();
    finished_ = true;
    sink_.finish();
  }

  bool finished() const noexcept { return finished_; }

 private:
  void require_open() const {
    if (finished_) throw TransportError("write on a finished stream");
  }

  StreamSink& sink_;
  BufferPool& pool_;
  std::size_t chunk_bytes_;
  const soap::AnyEncoding* encoding_;
  bool finished_ = false;
};

/// One streamed exchange on the server, pushed to the handler as it
/// arrives. on_chunk gets every data and patch chunk in wire order;
/// on_end runs once End has arrived and, on a signed stream, the Auth
/// trailer has verified. Both may write to `out`; a response on_end
/// leaves open is finished as it stands.
///
/// Callbacks run where materialized handlers do: inline on the reactor
/// that owns the connection, or on a worker when worker_threads > 0 —
/// one at a time per connection, never on a thread of their own. Inline,
/// a callback that blocks stalls its whole reactor. What a callback
/// writes is staged whole. A throw before the response's first frame is
/// staged answers with an in-band v1 fault once the rest of the request
/// has arrived; a throw after it cuts the connection.
class StreamCallbacks {
 public:
  virtual ~StreamCallbacks() = default;
  virtual void on_chunk(StreamChunk chunk, ResponseWriter& out) = 0;
  virtual void on_end(ResponseWriter& out) = 0;
};

/// A server's stream handler: called once per chunked request, with its
/// content type, for the callbacks that serve it.
using StreamHandler = std::function<std::unique_ptr<StreamCallbacks>(
    const std::string& content_type)>;

}  // namespace bxsoap::transport
