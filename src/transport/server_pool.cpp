#include "transport/internal/server_pool.hpp"

#include <algorithm>
#include <optional>

#include "soap/encoding.hpp"
#include "soap/overload.hpp"
#include "transport/framing.hpp"

namespace bxsoap::transport {

SoapServerPool::SoapServerPool(ServerConfig config)
    : encoding_(std::move(config.encoding)),
      handler_(std::move(config.handler)),
      stream_handler_(std::move(config.stream_handler)),
      stream_chunk_bytes_(config.stream_chunk_bytes),
      listener_(config.port, config.backlog),
      read_timeout_ms_(config.read_timeout_ms),
      frame_limits_(config.frame_limits),
      max_workers_(config.max_workers),
      drain_timeout_(config.drain_timeout),
      max_queue_depth_(config.max_queue_depth),
      accept_v3_(config.accept_v3),
      dict_limits_(config.dict_limits),
      compress_transforms_(config.compress_transforms),
      compress_policy_(config.compress_policy),
      stream_auth_(std::move(config.stream_auth)) {
  dict_capable_ =
      encoding_->content_type() == soap::BxsaEncoding::content_type();
  if (max_queue_depth_ > 0) {
    // Shedding must not cost a serialize: the Overloaded fault frame is a
    // constant, built once (same as the event server).
    const soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(
        soap::make_overloaded_fault(config.shed_retry_after));
    ByteWriter out(std::vector<std::uint8_t>{});
    const std::size_t len_pos = begin_frame(out, encoding_->content_type());
    encoding_->serialize_into(env.document(), out);
    end_frame(out, len_pos);
    shed_frame_ = out.take();
  }
  if (obs::Registry* reg = config.registry) {
    const std::string& prefix = config.metrics_prefix;
    obs_ = obs::MetricsObserver(*reg, prefix);
    io_ = &reg->io(prefix + ".io");
    active_gauge_ = &reg->gauge(prefix + ".connections.active");
    unreaped_gauge_ = &reg->gauge(prefix + ".workers.unreaped");
    accepted_ = &reg->counter(prefix + ".connections.accepted");
    shed_ = &reg->counter(prefix + ".shed");
    expired_ = &reg->counter(prefix + ".expired.dropped");
    stream_chunks_ = &reg->counter(prefix + ".stream.chunks");
    stream_flushes_ = &reg->counter(prefix + ".stream.flushes");
    stream_buffered_ = &reg->waterline(prefix + ".stream.buffered_bytes");
    buffer_pool_.attach_counters(&reg->counter(prefix + ".pool.hit"),
                                 &reg->counter(prefix + ".pool.miss"),
                                 &reg->counter(prefix + ".pool.recycled_bytes"));
    encoding_->set_codec_stats(&reg->codec(prefix + ".bxsa"));
    dict_stats_.entries = &reg->counter(prefix + ".dict.entries");
    dict_stats_.bytes_saved = &reg->counter(prefix + ".dict.bytes_saved");
    dict_stats_.resets = &reg->counter(prefix + ".dict.resets");
    compress_stats_.chunks = &reg->counter(prefix + ".compress.chunks");
    compress_stats_.skipped = &reg->counter(prefix + ".compress.skipped");
    compress_stats_.bytes_in = &reg->counter(prefix + ".compress.bytes_in");
    compress_stats_.bytes_out = &reg->counter(prefix + ".compress.bytes_out");
    compress_stats_.ns = &reg->counter(prefix + ".compress.ns");
    auth_stats_.bytes_authenticated =
        &reg->counter(prefix + ".sec.bytes_authenticated");
    auth_stats_.tag_failures = &reg->counter(prefix + ".sec.tag_failures");
    auth_stats_.verify_ns = &reg->counter(prefix + ".sec.verify.ns");
  }
  if (!config.idempotent_ops.empty()) {
    ResponseCache::Stats cache_stats;
    if (obs::Registry* reg = config.registry) {
      const std::string& prefix = config.metrics_prefix;
      cache_stats.hits = &reg->counter(prefix + ".respcache.hits");
      cache_stats.misses = &reg->counter(prefix + ".respcache.misses");
      cache_stats.bytes = &reg->counter(prefix + ".respcache.bytes");
    }
    respcache_.emplace(ResponseCache::Config{config.respcache_max_entries,
                                             config.respcache_max_bytes,
                                             /*shards=*/8},
                       cache_stats);
    idempotent_ops_.insert(config.idempotent_ops.begin(),
                           config.idempotent_ops.end());
  }
  acceptor_ = std::thread([this] { accept_loop(); });
}

SoapServerPool::~SoapServerPool() { stop(); }

void SoapServerPool::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown();
  workers_cv_.notify_all();  // wake an acceptor parked at the worker ceiling
  if (acceptor_.joinable()) acceptor_.join();
  // Graceful drain: cut idle connections immediately (their workers are
  // blocked in read_frame waiting for a request that is never coming), but
  // give in-flight exchanges up to drain_timeout_ to write their response.
  const auto deadline = std::chrono::steady_clock::now() + drain_timeout_;
  for (;;) {
    bool any_busy = false;
    {
      std::lock_guard lock(conns_mu_);
      for (const ConnEntry& e : conns_) {
        if (e.busy->load(std::memory_order_acquire)) {
          any_busy = true;
        } else {
          e.stream->shutdown_both();
        }
      }
    }
    if (!any_busy || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  {
    // Whatever is still here either finished (worker will exit on its own)
    // or overstayed the drain budget; force it down.
    std::lock_guard lock(conns_mu_);
    for (const ConnEntry& e : conns_) e.stream->shutdown_both();
  }
  std::vector<Worker> workers;
  {
    std::lock_guard lock(workers_mu_);
    workers.swap(workers_);
  }
  for (auto& w : workers) {
    if (w.thread.joinable()) w.thread.join();
  }
  if (unreaped_gauge_ != nullptr) unreaped_gauge_->set(0);
  listener_.close();
}

/// Join workers whose connection loop has finished. Called with
/// workers_mu_ held; each join is instant because the done flag is the
/// worker's final act before returning.
void SoapServerPool::reap_finished_locked() {
  std::erase_if(workers_, [this](Worker& w) {
    if (!w.done->load(std::memory_order_acquire)) return false;
    if (w.thread.joinable()) w.thread.join();
    if (unreaped_gauge_ != nullptr) unreaped_gauge_->sub();
    return true;
  });
}

void SoapServerPool::accept_loop() {
  while (!stopping_.load()) {
    if (max_workers_ > 0) {
      // Backpressure at the ceiling: park instead of accepting, so excess
      // clients wait in the kernel's listen backlog rather than each
      // getting a thread.
      std::unique_lock lock(workers_mu_);
      workers_cv_.wait(lock, [this] {
        reap_finished_locked();
        return stopping_.load() || workers_.size() < max_workers_;
      });
      if (stopping_.load()) break;
    }
    TcpStream conn;
    try {
      conn = listener_.accept();
    } catch (const TransportError&) {
      break;  // listener shut down
    }
    if (accepted_ != nullptr) accepted_->add();
    std::lock_guard lock(workers_mu_);
    // A long-lived pool must not accumulate one dead thread per served
    // connection: reap the finished ones before adding the new worker.
    reap_finished_locked();
    auto done = std::make_shared<std::atomic<bool>>(false);
    Worker w;
    w.done = done;
    w.thread = std::thread(
        [this, done, stream = std::move(conn)]() mutable {
          ++active_;
          if (active_gauge_ != nullptr) active_gauge_->add();
          serve_connection(std::move(stream));
          if (active_gauge_ != nullptr) active_gauge_->sub();
          --active_;
          done->store(true, std::memory_order_release);
          workers_cv_.notify_all();  // free a slot at the worker ceiling
        });
    workers_.push_back(std::move(w));
    if (unreaped_gauge_ != nullptr) unreaped_gauge_->add();
  }
}

void SoapServerPool::serve_connection(TcpStream stream) {
  // In-exchange marker for graceful drain: true from "request fully read"
  // to "response written". stop() only force-closes connections whose flag
  // is false.
  std::atomic<bool> busy{false};
  {
    std::lock_guard lock(conns_mu_);
    conns_.push_back({&stream, &busy});
  }
  struct Unregister {
    SoapServerPool* pool;
    TcpStream* stream;
    ~Unregister() {
      std::lock_guard lock(pool->conns_mu_);
      std::erase_if(pool->conns_,
                    [this](const ConnEntry& e) { return e.stream == stream; });
    }
  } unregister{this, &stream};

  try {
    stream.set_io_stats(io_);
    stream.set_no_delay(true);
    if (read_timeout_ms_ > 0) stream.set_read_timeout(read_timeout_ms_);
    // BXTP v3 channel state, created by the Hello/Accept handshake and
    // scoped to this connection: the negotiated flag and the two mirrored
    // dictionary directions (requests decode, responses encode).
    bool v3 = false;
    std::uint8_t transforms = 0;  // negotiated compression set (0 = plain)
    std::uint8_t auth_algo = 0;   // negotiated stream auth (0 = unsigned)
    std::optional<bxsa::DictDecoder> req_dict;
    std::optional<bxsa::DictEncoder> resp_dict;
    // Serve exchanges until the peer hangs up.
    for (;;) {
      FrameStart start;
      std::optional<soap::WireMessage> body;
      std::uint8_t req_flags = 0;
      {
        // One frame-read sample per exchange, spanning header + body.
        obs::StageTimer t(obs_, obs::Stage::kFrameRead);
        start = read_frame_start(stream, frame_limits_, accept_v3_);
        if (!start.hello && (!start.chunked() || !stream_handler_)) {
          // Without a stream handler a chunked frame throws here, cutting
          // the connection — bytes past the header cannot be reframed.
          req_flags = start.flags;
          body = read_frame_body(stream, std::move(start), frame_limits_,
                                 &buffer_pool_);
        }
      }
      if (start.hello) {
        if (v3) {
          throw TransportError("repeated Hello on a negotiated connection");
        }
        AcceptFrame accept;
        if (start.hello_frame.max_version >= kFrameVersionNegotiated) {
          // Effective table: the element-wise min of both offers — forced
          // to empty when this server's payloads are not plain BXSA, so
          // the client never dictionary-codes at us in vain.
          bxsa::DictLimits eff{0, 0};
          if (dict_capable_) {
            eff = dict_limits_.min_with({start.hello_frame.dict_max_entries,
                                         start.hello_frame.dict_max_bytes});
          }
          accept.version = kFrameVersionNegotiated;
          accept.dict_max_entries = eff.max_entries;
          accept.dict_max_bytes = eff.max_bytes;
          // Transform set: the intersection of both offers. Empty means
          // this connection stays plain-v3 — byte-identical to a server
          // that never heard of compression.
          accept.transforms =
              compress_transforms_ & start.hello_frame.transforms;
          transforms = accept.transforms;
          // Stream authentication: the intersection of both offers; the
          // effective algorithm is its lowest set bit. Empty = this
          // connection's streams stay unsigned (sticky downgrade).
          accept.auth =
              stream_auth_ ? (stream_auth_.algos & start.hello_frame.auth)
                           : std::uint8_t{0};
          auth_algo = authalgs::pick(accept.auth);
          v3 = true;
          if (eff.max_entries > 0) {
            req_dict.emplace(eff);
            resp_dict.emplace(eff);
          }
        } else {
          // The peer probed with v3 framing but cannot speak it; answer
          // with v1 and keep serving plain frames.
          accept.version = kFrameVersion;
        }
        write_accept(stream, accept);
        continue;
      }
      if (!body) {
        busy.store(true, std::memory_order_release);
        serve_stream(stream, std::move(start), transforms, auth_algo);
        busy.store(false, std::memory_order_release);
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      soap::WireMessage raw = std::move(*body);
      // Decode order is the reverse of encode order (dict then compress):
      // decompress first, so the dictionary — and the response cache — see
      // canonical bytes.
      if ((req_flags & v3flags::kCompressed) != 0) {
        raw.payload = decompress_frame_payload(std::move(raw.payload),
                                               transforms, frame_limits_,
                                               buffer_pool_);
      }
      if ((req_flags & v3flags::kDictEncoded) != 0) {
        if (!req_dict) {
          throw TransportError(
              "dictionary-coded message without a negotiated table");
        }
        ByteWriter plain(buffer_pool_.acquire(raw.payload.size() + 64));
        try {
          req_dict->decode(raw.payload, (req_flags & v3flags::kDictReset) != 0,
                           plain, dict_stats_);
        } catch (const DecodeError& e) {
          // A mirror desync poisons every later message on this channel;
          // strict validation cuts the connection (FORMAT.md "BXTP v3").
          throw TransportError(std::string("dictionary decode failed: ") +
                               e.what());
        }
        buffer_pool_.release(std::move(raw.payload));
        raw.payload = plain.take();
      }
      // The deadline header is relative: it counts from the moment WE
      // finished reading the request, so no client/server clock sync is
      // assumed.
      const auto received = std::chrono::steady_clock::now();
      busy.store(true, std::memory_order_release);
      // Idempotent-response cache: a byte-identical repeat of a declared
      // idempotent request is answered straight from the cached encoded
      // payload — no deserialize, no handler, no serialize. Served ahead
      // of admission control: a hit costs none of the work the in-flight
      // bound exists to ration.
      if (respcache_) {
        if (ResponseCache::Payload hit = respcache_->lookup(
                encoding_->content_type(), raw.payload)) {
          buffer_pool_.release(std::move(raw.payload));
          ByteWriter out(buffer_pool_.acquire(hit->size() + 64));
          if (v3) {
            frame_v3_payload(out, *hit, encoding_->content_type(), resp_dict,
                             dict_stats_, transforms, compress_policy_,
                             &buffer_pool_, compress_stats_);
          } else {
            const std::size_t len_pos =
                begin_frame(out, encoding_->content_type());
            out.write_bytes(*hit);
            end_frame(out, len_pos);
          }
          ++exchanges_;
          obs_.count_exchange();
          {
            obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
            stream.write_all(out.bytes());
          }
          buffer_pool_.release(out.take());
          busy.store(false, std::memory_order_release);
          if (stopping_.load(std::memory_order_acquire)) break;
          continue;
        }
      }
      // In-flight accounting for admission: one slot from here until the
      // response (or shed fault) is about to be written. It is freed before
      // the write, so a client holding its response finds the slot free.
      const std::size_t prior =
          inflight_exchanges_.fetch_add(1, std::memory_order_acq_rel);
      struct InflightSlot {
        std::atomic<std::size_t>& n;
        bool held = true;
        void release() {
          if (held) n.fetch_sub(1, std::memory_order_acq_rel);
          held = false;
        }
        ~InflightSlot() { release(); }
      } inflight_slot{inflight_exchanges_};
      if (max_queue_depth_ > 0 && prior >= max_queue_depth_) {
        // The pool is past its in-flight bound: refuse this request with
        // the pre-encoded retryable Overloaded fault — in its own slot on
        // this connection, so earlier exchanges are untouched — instead
        // of piling more latency onto every caller.
        buffer_pool_.release(std::move(raw.payload));
        ++faults_;
        obs_.count_fault();
        if (shed_ != nullptr) shed_->add();
        ++exchanges_;
        obs_.count_exchange();
        inflight_slot.release();
        {
          obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
          stream.write_all(shed_frame_);
        }
        busy.store(false, std::memory_order_release);
        if (stopping_.load(std::memory_order_acquire)) break;
        continue;
      }
      // Hoisted out of the handler lambda: the request's wire bytes stay
      // alive through the exchange (the decoded tree views them anyway),
      // so a cacheable response can be inserted under its request key.
      SharedBuffer wire;
      bool cacheable = false;
      soap::SoapEnvelope response = [&]() -> soap::SoapEnvelope {
        try {
          soap::SoapEnvelope request = [&] {
            obs_.stage_bytes(obs::Stage::kDeserialize, raw.payload.size());
            obs::StageTimer t(obs_, obs::Stage::kDeserialize);
            // Adopting the payload lets packed arrays decode as views; the
            // buffer recycles into the pool when the last view (usually the
            // request tree, at the end of this exchange) lets go.
            wire = SharedBuffer::adopt(std::move(raw.payload), &buffer_pool_);
            return soap::SoapEnvelope(encoding_->deserialize_shared(wire));
          }();
          cacheable = respcache_.has_value() &&
                      idempotent_ops_.contains(operation_name(request));
          // Deadline propagation: a request whose stamped budget ran out
          // before the handler could start is dropped — the caller has
          // already given up on it.
          std::optional<std::chrono::steady_clock::time_point> deadline;
          if (const auto budget = soap::get_deadline(request)) {
            deadline = received + *budget;
          }
          if (deadline.has_value() &&
              std::chrono::steady_clock::now() >= *deadline) {
            if (expired_ != nullptr) expired_->add();
            return soap::SoapEnvelope::make_fault(
                {std::string(soap::kServerFaultCode),
                 std::string(soap::kDeadlineExpiredReason), ""});
          }
          soap::DeadlineScope scope(deadline);
          obs::StageTimer t(obs_, obs::Stage::kHandler);
          return handler_(std::move(request));
        } catch (const SoapFaultError& e) {
          return soap::SoapEnvelope::make_fault({e.code(), e.reason(), ""});
        } catch (const DecodeError& e) {
          // The peer sent bytes we could not decode — that is the client's
          // fault, answered in-band; the connection stays up.
          return soap::SoapEnvelope::make_fault({"soap:Client", e.what(), ""});
        } catch (const std::exception& e) {
          return soap::SoapEnvelope::make_fault(
              {"soap:Server", e.what(), ""});
        }
      }();
      if (response.is_fault()) {
        ++faults_;
        obs_.count_fault();
      }
      // Serialize into ONE pooled buffer with the frame header reserved up
      // front, so header + payload leave in a single write_all. A fault is
      // never cached; a negotiated connection's payload takes a detour
      // through a canonical buffer because the dictionary transform (and
      // the cache) needs the pre-dictionary bytes.
      ByteWriter out(buffer_pool_.acquire(256));
      if (!v3) {
        const std::size_t len_pos =
            begin_frame(out, encoding_->content_type());
        {
          obs::StageTimer t(obs_, obs::Stage::kSerialize);
          encoding_->serialize_into(response.document(), out);
        }
        end_frame(out, len_pos);
        obs_.stage_bytes(obs::Stage::kSerialize, out.size() - len_pos - 8);
        if (cacheable && !response.is_fault()) {
          const auto payload = out.bytes().subspan(len_pos + 8);
          respcache_->insert(
              encoding_->content_type(), wire.bytes(),
              std::make_shared<const std::vector<std::uint8_t>>(
                  payload.begin(), payload.end()));
        }
      } else {
        ByteWriter plain(buffer_pool_.acquire(256));
        {
          obs::StageTimer t(obs_, obs::Stage::kSerialize);
          encoding_->serialize_into(response.document(), plain);
        }
        obs_.stage_bytes(obs::Stage::kSerialize, plain.size());
        if (cacheable && !response.is_fault()) {
          respcache_->insert(
              encoding_->content_type(), wire.bytes(),
              std::make_shared<const std::vector<std::uint8_t>>(
                  plain.bytes().begin(), plain.bytes().end()));
        }
        frame_v3_payload(out, plain.bytes(), encoding_->content_type(),
                         resp_dict, dict_stats_, transforms, compress_policy_,
                         &buffer_pool_, compress_stats_);
        buffer_pool_.release(plain.take());
      }
      // Count before the reply bytes leave: a client that has its response
      // must observe the exchange as recorded.
      ++exchanges_;
      obs_.count_exchange();
      inflight_slot.release();
      {
        obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
        stream.write_all(out.bytes());
      }
      buffer_pool_.release(out.take());
      busy.store(false, std::memory_order_release);
      // A stop() that arrived mid-exchange deliberately left this
      // connection open so the response above could drain; honor it now.
      if (stopping_.load(std::memory_order_acquire)) break;
    }
  } catch (const TransportError&) {
    // Peer disconnected (normal end of conversation), the read timeout
    // expired, or stop() shut the socket down; this worker is done.
  }
}

void SoapServerPool::serve_stream(TcpStream& stream, FrameStart start,
                                  std::uint8_t transforms,
                                  std::uint8_t auth_algo) {
  // On a connection that negotiated stream authentication, every chunked
  // exchange carries an Auth trailer each way: the request's is verified
  // incrementally (the reader absorbs each surfaced chunk and checks the
  // trailer before End), the response's is signed as chunks flush.
  std::unique_ptr<StreamAuthenticator> rx_auth;
  std::unique_ptr<StreamAuthenticator> tx_auth;
  if (auth_algo != 0) {
    rx_auth = stream_auth_.make(auth_algo);
    tx_auth = stream_auth_.make(auth_algo);
    if (rx_auth == nullptr || tx_auth == nullptr) {
      throw TransportError("stream auth cannot build the negotiated "
                           "algorithm");
    }
  }
  // Pull side: request chunks come one at a time off the blocking socket,
  // so the pull rate of the handler is the read rate of the connection.
  ChunkedFrameReader<TcpStream> reader(stream, frame_limits_, &buffer_pool_);
  reader.set_transforms(transforms);
  if (rx_auth != nullptr) reader.set_auth(rx_auth.get(), auth_algo, auth_stats_);
  struct SocketSource final : StreamSource {
    SoapServerPool* pool;
    ChunkedFrameReader<TcpStream>& reader;
    SocketSource(SoapServerPool* p, ChunkedFrameReader<TcpStream>& r)
        : pool(p), reader(r) {}
    std::optional<StreamChunk> next() override {
      if (reader.done()) return std::nullopt;
      StreamChunk c = reader.next();
      if (c.kind == ChunkKind::kEnd) return std::nullopt;
      if (pool->stream_chunks_ != nullptr) pool->stream_chunks_->add();
      return c;
    }
  } source(this, reader);

  // Push side: response chunks go straight back out. The writer (and with
  // it the v2 response header) is created lazily, so a handler that faults
  // before producing anything can still be answered with a v1 fault
  // envelope on the same connection.
  struct SocketSink final : StreamSink {
    SoapServerPool* pool;
    TcpStream& stream;
    std::uint8_t transforms;
    StreamAuthenticator* auth;
    std::uint8_t auth_algo;
    std::optional<ChunkedFrameWriter<TcpStream>> writer;
    SocketSink(SoapServerPool* p, TcpStream& s, std::uint8_t t,
               StreamAuthenticator* a, std::uint8_t algo)
        : pool(p), stream(s), transforms(t), auth(a), auth_algo(algo) {}
    void ensure_writer() {
      if (!writer) {
        writer.emplace(stream, pool->encoding_->content_type());
        if (transforms != 0) {
          writer->set_compression({transforms, pool->compress_policy_,
                                   &pool->buffer_pool_,
                                   pool->compress_stats_});
        }
        if (auth != nullptr) {
          writer->set_auth(auth, auth_algo, pool->auth_stats_);
        }
      }
    }
    void write(StreamChunk c) override {
      ensure_writer();
      const std::size_t n = c.bytes.size();
      if (pool->stream_buffered_ != nullptr) pool->stream_buffered_->add(n);
      {
        obs::StageTimer t(pool->obs_, obs::Stage::kFrameWrite);
        if (c.kind == ChunkKind::kData) {
          writer->write_data(c.bytes);
        } else {
          writer->write_raw(c.kind, c.bytes);
        }
      }
      if (pool->stream_buffered_ != nullptr) pool->stream_buffered_->sub(n);
      if (pool->stream_flushes_ != nullptr) pool->stream_flushes_->add();
      pool->buffer_pool_.release(std::move(c.bytes));
    }
    void finish() override {
      ensure_writer();
      writer->finish();
    }
  } sink(this, stream, transforms, tx_auth.get(), auth_algo);

  StreamRequest request(std::move(start.content_type), source);
  ResponseWriter response(sink, buffer_pool_, stream_chunk_bytes_,
                          encoding_.get());
  soap::Fault fault;
  bool faulted = false;
  try {
    {
      obs::StageTimer t(obs_, obs::Stage::kHandler);
      stream_handler_(request, response);
    }
    if (!response.finished()) response.finish();
    // An unread request tail would desynchronize the next frame; consume
    // it (the chunk buffers recycle, nothing accumulates).
    request.drain(buffer_pool_);
    ++exchanges_;
    obs_.count_exchange();
    return;
  } catch (const TransportError&) {
    throw;  // connection-level failure: the caller cuts the connection
  } catch (const SoapFaultError& e) {
    faulted = true;
    fault = {e.code(), e.reason(), ""};
  } catch (const DecodeError& e) {
    faulted = true;
    fault = {"soap:Client", e.what(), ""};
  } catch (const std::exception& e) {
    faulted = true;
    fault = {"soap:Server", e.what(), ""};
  }
  if (!faulted) return;
  if (sink.writer) {
    // Response chunks already left; there is no in-band way to retract
    // them, so the stream (and connection) dies — same contract as a
    // torn frame.
    throw TransportError("stream handler failed mid-response");
  }
  request.drain(buffer_pool_);
  ++faults_;
  obs_.count_fault();
  soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(fault);
  ByteWriter out(buffer_pool_.acquire(256));
  const std::size_t len_pos = begin_frame(out, encoding_->content_type());
  encoding_->serialize_into(env.document(), out);
  end_frame(out, len_pos);
  ++exchanges_;
  obs_.count_exchange();
  stream.write_all(out.bytes());
  buffer_pool_.release(out.take());
}

}  // namespace bxsoap::transport
