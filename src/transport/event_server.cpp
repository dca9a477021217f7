#include "transport/internal/event_server.hpp"

#include <algorithm>
#include <stdexcept>

#include "soap/encoding.hpp"
#include "soap/overload.hpp"

namespace bxsoap::transport {

namespace {

/// Per-EPOLLIN read budget: up to this many recv() rounds of kReadChunk
/// bytes before yielding back to the event loop (level-triggered epoll
/// re-reports the fd if more is pending, so no data is lost — this just
/// keeps one firehose connection from starving the rest).
constexpr int kReadRounds = 4;
constexpr std::size_t kReadChunk = 64 * 1024;
/// Largest read straight into a v1/v3 payload buffer: the buffer grows by
/// at most this much ahead of the bytes that actually arrived.
constexpr std::size_t kInPlaceRead = 256 * 1024;

constexpr int kMaxEvents = 64;

/// What a frame adds to stream.buffered_bytes: a chunk frame's body. The
/// stream header is not a chunk.
std::size_t held_bytes(const ChunkFrame& f) {
  return f.hdr_size > 0 ? f.body.size() : 0;
}

}  // namespace

SoapEventServer::SoapEventServer(ServerConfig config)
    : encoding_(std::move(config.encoding)),
      handler_(std::move(config.handler)),
      run_inline_(config.worker_threads == 0),
      stream_handler_(std::move(config.stream_handler)),
      stream_chunk_bytes_(config.stream_chunk_bytes),
      buffer_pool_(config.buffer_pool),
      listener_(config.port, config.backlog),
      read_timeout_ms_(config.read_timeout_ms),
      max_connections_(config.max_connections),
      drain_timeout_(config.drain_timeout),
      max_queue_depth_(config.max_queue_depth),
      max_inflight_per_conn_(config.max_inflight_per_conn),
      accept_v3_(config.accept_v3),
      // Only plain BXSA payloads can be dictionary-coded, so any other
      // encoding offers no table and a client never codes at us in vain.
      v3_offer_{encoding_->content_type() == soap::BxsaEncoding::content_type()
                    ? config.dict_limits
                    : bxsa::DictLimits{0, 0},
                config.compress_transforms, config.stream_auth.algos},
      endpoint_{config.frame_limits, &buffer_pool_, config.compress_policy,
                std::move(config.stream_auth)} {
  if (max_queue_depth_ > 0 || max_inflight_per_conn_ > 0) {
    // Shedding happens on reactor threads, which must never pay for a
    // serialize: the Overloaded fault frame is a constant, built once.
    shed_frame_ =
        encode_fault(soap::make_overloaded_fault(config.shed_retry_after));
  }
  std::size_t shards = config.reactor_threads;
  if (shards == 0) {
    shards = std::max(1u, std::thread::hardware_concurrency());
  }

  // One listener, owned by reactor 0, dealing round-robin.
  listener_.set_nonblocking(true);

  obs::Registry* reg = config.registry;
  const std::string& prefix = config.metrics_prefix;
  if (reg != nullptr) {
    obs_ = obs::MetricsObserver(*reg, prefix);
    io_ = &reg->io(prefix + ".io");
    active_gauge_ = &reg->gauge(prefix + ".connections.active");
    queue_depth_gauge_ = &reg->gauge(prefix + ".reactor.queue.depth");
    accepted_ = &reg->counter(prefix + ".connections.accepted");
    wakeups_ = &reg->counter(prefix + ".reactor.wakeups");
    pipelined_ = &reg->counter(prefix + ".pipelined.exchanges");
    shed_ = &reg->counter(prefix + ".shed");
    parks_ = &reg->counter(prefix + ".overload.parks");
    expired_ = &reg->counter(prefix + ".expired.dropped");
    queue_waterline_ = &reg->waterline(prefix + ".queue.waterline");
    stream_chunks_ = &reg->counter(prefix + ".stream.chunks");
    stream_flushes_ = &reg->counter(prefix + ".stream.flushes");
    stream_buffered_ = &reg->waterline(prefix + ".stream.buffered_bytes");
    loop_ns_ = &reg->histogram(prefix + ".reactor.loop.ns");
    buffer_pool_.attach_counters(&reg->counter(prefix + ".pool.hit"),
                                 &reg->counter(prefix + ".pool.miss"),
                                 &reg->counter(prefix + ".pool.recycled_bytes"));
    encoding_->set_codec_stats(&reg->codec(prefix + ".bxsa"));
    endpoint_.dict_stats = {&reg->counter(prefix + ".dict.entries"),
                            &reg->counter(prefix + ".dict.bytes_saved"),
                            &reg->counter(prefix + ".dict.resets")};
    endpoint_.compress_stats = {&reg->counter(prefix + ".compress.chunks"),
                                &reg->counter(prefix + ".compress.skipped"),
                                &reg->counter(prefix + ".compress.bytes_in"),
                                &reg->counter(prefix + ".compress.bytes_out"),
                                &reg->counter(prefix + ".compress.ns")};
    endpoint_.auth_stats = {
        &reg->counter(prefix + ".sec.bytes_authenticated"),
        &reg->counter(prefix + ".sec.tag_failures"),
        &reg->counter(prefix + ".sec.verify.ns")};
  }
  if (!config.idempotent_ops.empty()) {
    ResponseCache::Stats cache_stats;
    if (reg != nullptr) {
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

  reactors_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    auto r = std::make_unique<Reactor>();
    r->index = i;
    r->epoll.add(r->wakeup.fd(), EPOLLIN);
    if (reg != nullptr) {
      const std::string shard = prefix + ".reactor." + std::to_string(i);
      // Per-shard views; the unsuffixed reactor.* names stay the rollup.
      r->loop_ns = &reg->histogram(shard + ".loop.ns");
      r->assigned = &reg->counter(shard + ".connections");
    }
    reactors_.push_back(std::move(r));
  }

  // No pool at all when exchanges run inline on their reactors.
  workers_.reserve(config.worker_threads);
  for (std::size_t i = 0; i < config.worker_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  for (auto& r : reactors_) {
    Reactor* shard_ptr = r.get();
    r->thread = std::thread([this, shard_ptr] { reactor_loop(*shard_ptr); });
  }
}

SoapEventServer::~SoapEventServer() { stop(); }

void SoapEventServer::stop() {
  if (stopped_.exchange(true)) return;
  {
    // Set under jobs_mu_: a worker that has checked its wait predicate but
    // not yet blocked would otherwise miss both notifications below and
    // never return, hanging the join.
    std::lock_guard lock(jobs_mu_);
    stopping_.store(true, std::memory_order_release);
  }
  for (auto& r : reactors_) r->wakeup.signal();
  jobs_cv_.notify_all();  // idle workers re-check the stop condition
  for (auto& r : reactors_) {
    if (r->thread.joinable()) r->thread.join();
  }
  jobs_cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Sockets accepted by reactor 0 but never adopted by their shard (the
  // handoff raced the stop): close and account for them here.
  for (auto& r : reactors_) {
    std::lock_guard lock(r->mu);
    for (TcpStream& s : r->incoming) {
      s.close();
      --active_;
      if (active_gauge_ != nullptr) active_gauge_->sub();
    }
    r->incoming.clear();
  }
  listener_.close();
}

void SoapEventServer::update_interest(Conn& conn) {
  const bool reading = !conn.read_closed && !conn.stream_parked &&
                       !conn.queue_parked &&
                       !stopping_.load(std::memory_order_relaxed);
  const std::uint32_t events =
      (reading ? EPOLLIN : 0u) | (conn.want_write ? EPOLLOUT : 0u);
  if (events == conn.interest) return;
  conn.interest = events;
  conn.owner->epoll.mod(conn.stream.fd(), events);
}

void SoapEventServer::update_listener_interest(Reactor& r) {
  if (r.index != 0) return;
  const bool want = !stopping_.load(std::memory_order_relaxed) &&
                    (max_connections_ == 0 ||
                     active_.load(std::memory_order_relaxed) <
                         max_connections_);
  if (want == r.accept_armed) return;
  if (want) {
    r.epoll.add(listener_.fd(), EPOLLIN);
  } else {
    r.epoll.del(listener_.fd());
  }
  r.accept_armed = want;
}

void SoapEventServer::reactor_loop(Reactor& r) {
  epoll_event events[kMaxEvents];
  bool draining = false;
  std::chrono::steady_clock::time_point drain_deadline;

  for (;;) {
    // Re-check every pass: a drop on ANOTHER shard may have opened room
    // under max_connections_ (that shard signals our wakeup).
    if (!draining) update_listener_interest(r);

    // A pass that woke for a completion and saw stopping_ still false may
    // have drained stop()'s signal along with it; never sleep unbounded
    // once stopping_ is set, so the check below still runs.
    int timeout_ms = -1;
    if (draining || stopping_.load(std::memory_order_acquire)) {
      timeout_ms = 2;
    } else if (read_timeout_ms_ > 0) {
      timeout_ms = std::min(read_timeout_ms_, 100);
    }
    const int n = r.epoll.wait(events, kMaxEvents, timeout_ms);
    const auto woke = std::chrono::steady_clock::now();
    if (wakeups_ != nullptr) wakeups_->add();

    if (!draining && stopping_.load(std::memory_order_acquire)) {
      // Entering drain: stop accepting and reading. Partially assembled
      // frames (and streams still awaiting input) are abandoned; every
      // fully read request still completes.
      draining = true;
      drain_deadline = woke + drain_timeout_;
      update_listener_interest(r);
      for (auto& [fd, conn] : r.conns) update_interest(*conn);
    }

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == r.wakeup.fd()) {
        r.wakeup.drain();
        continue;
      }
      if (r.index == 0 && fd == listener_.fd()) {
        if (!draining) accept_ready(r);
        continue;
      }
      const auto it = r.conns.find(fd);
      if (it == r.conns.end()) continue;  // dropped earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      if ((ev & (EPOLLERR | EPOLLHUP)) != 0) {
        // The peer is gone in both directions; nothing can be delivered.
        drop(conn);
        continue;
      }
      if ((ev & EPOLLOUT) != 0) flush(conn);
      if ((ev & EPOLLIN) != 0 && !draining) read_ready(conn);
    }

    // Connections dealt to this shard since the last pass, siblings'
    // stream jobs, then completions: flush their connections, which
    // re-opens the read taps the jobs freed.
    std::vector<TcpStream> fresh;
    std::vector<std::shared_ptr<Conn>> ready;
    std::vector<Job> jobs;
    {
      std::lock_guard lock(r.mu);
      fresh.swap(r.incoming);
      ready.swap(r.flush_queue);
      jobs.swap(r.jobs);
    }
    for (TcpStream& s : fresh) {
      if (draining) {
        s.close();
        --active_;
        if (active_gauge_ != nullptr) active_gauge_->sub();
      } else {
        adopt(r, std::move(s));
      }
    }
    for (const Job& job : jobs) run_stream_items(job.conn);
    for (const auto& conn : ready) flush(conn);
    // Workers signal our wakeup when the queue drains below half the
    // admission bound; re-open the parked taps.
    if (!draining && r.queue_parked_conns > 0) maybe_unpark_queue(r);

    if (!draining && read_timeout_ms_ > 0) sweep_idle(r);

    if (draining) {
      // Cut every connection with nothing left to deliver; leave the busy
      // ones to finish until the drain budget runs out.
      std::vector<std::shared_ptr<Conn>> done;
      for (auto& [fd, conn] : r.conns) {
        if (fully_drained(*conn)) done.push_back(conn);
      }
      for (const auto& conn : done) drop(conn);
      if (r.conns.empty()) break;
      if (std::chrono::steady_clock::now() >= drain_deadline) {
        std::vector<std::shared_ptr<Conn>> rest;
        rest.reserve(r.conns.size());
        for (auto& [fd, conn] : r.conns) rest.push_back(conn);
        for (const auto& conn : rest) drop(conn);
        break;
      }
    }

    if (loop_ns_ != nullptr) {
      const auto spent = std::chrono::steady_clock::now() - woke;
      const auto ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(spent)
              .count());
      loop_ns_->record(ns);                          // rollup
      if (r.loop_ns != nullptr) r.loop_ns->record(ns);  // this shard
    }
  }
  // Siblings still draining run their stream jobs themselves from now on.
  std::vector<Job> left;
  {
    std::lock_guard lock(r.mu);
    r.closed = true;
    left.swap(r.jobs);
  }
  for (const Job& job : left) run_stream_items(job.conn);
}

bool SoapEventServer::fully_drained(Conn& conn) {
  std::lock_guard lock(conn.mu);
  return conn.inflight == 0 && conn.outbox.empty();
}

void SoapEventServer::accept_ready(Reactor& r) {
  for (;;) {
    if (max_connections_ > 0 &&
        active_.load(std::memory_order_relaxed) >= max_connections_) {
      update_listener_interest(r);  // park the listener at the ceiling
      return;
    }
    std::optional<TcpStream> accepted;
    try {
      accepted = listener_.try_accept();
    } catch (const TransportError&) {
      return;  // listener shut down
    }
    if (!accepted) return;
    TcpStream stream = std::move(*accepted);
    try {
      stream.set_nonblocking(true);
      stream.set_no_delay(true);
    } catch (const TransportError&) {
      continue;  // raced a disconnect; nothing to serve
    }
    stream.set_io_stats(io_);
    ++active_;
    if (active_gauge_ != nullptr) active_gauge_->add();
    if (accepted_ != nullptr) accepted_->add();
    // Deal round-robin — exactly fair, and deterministic for the
    // distribution tests.
    Reactor& target = *reactors_[next_reactor_++ % reactors_.size()];
    if (target.assigned != nullptr) target.assigned->add();
    if (&target == &r) {
      adopt(r, std::move(stream));
      continue;
    }
    bool first = false;
    {
      std::lock_guard lock(target.mu);
      first = target.inbox_empty();
      target.incoming.push_back(std::move(stream));
    }
    if (first) target.wakeup.signal();
  }
}

void SoapEventServer::adopt(Reactor& r, TcpStream stream) {
  auto conn = std::make_shared<Conn>(std::move(stream), endpoint_.limits,
                                     &buffer_pool_, accept_v3_);
  conn->owner = &r;
  conn->last_activity = std::chrono::steady_clock::now();
  const int conn_fd = conn->stream.fd();
  r.conns.emplace(conn_fd, conn);
  r.epoll.add(conn_fd, EPOLLIN);
}

/// Admission refused: the request's payload recycles untouched (it was
/// never decoded) and its sequence slot is answered with the pre-encoded
/// retryable Overloaded fault, so pipelined responses around it stay
/// ordered and the client gets a fast in-band retry signal instead of a
/// cut connection.
void SoapEventServer::shed(const std::shared_ptr<Conn>& conn,
                           std::uint64_t seq, soap::WireMessage request) {
  buffer_pool_.release(std::move(request.payload));
  ++faults_;
  obs_.count_fault();
  if (shed_ != nullptr) shed_->add();
  ByteWriter out(buffer_pool_.acquire(shed_frame_.size()));
  out.write_bytes(shed_frame_.data(), shed_frame_.size());
  if (complete(conn, seq, out.take())) conn->flush_pending = true;
}

void SoapEventServer::park_for_queue(const std::shared_ptr<Conn>& conn) {
  if (conn->queue_parked || conn->read_closed) return;
  conn->queue_parked = true;
  ++conn->owner->queue_parked_conns;
  queue_parked_total_.fetch_add(1, std::memory_order_relaxed);
  if (parks_ != nullptr) parks_->add();
  update_interest(*conn);
}

void SoapEventServer::maybe_unpark_queue(Reactor& r) {
  // Hysteresis: reopen the taps only once the workers have drained the
  // queue to HALF the bound, so parked connections don't thrash on and
  // off at the edge.
  if (queue_depth_.load(std::memory_order_acquire) * 2 > max_queue_depth_) {
    return;
  }
  const auto now = std::chrono::steady_clock::now();
  for (auto& [fd, conn] : r.conns) {
    if (!conn->queue_parked) continue;
    conn->queue_parked = false;
    --r.queue_parked_conns;
    queue_parked_total_.fetch_sub(1, std::memory_order_relaxed);
    // The pause was OUR backpressure, not peer silence; don't let the
    // idle sweep bill the peer for it.
    conn->last_activity = now;
    update_interest(*conn);
    if (r.queue_parked_conns == 0) break;
  }
}

void SoapEventServer::read_ready(const std::shared_ptr<Conn>& conn) {
  std::uint8_t buf[kReadChunk];
  for (int round = 0; round < kReadRounds; ++round) {
    // Backpressure: the tap is closed (the stream holds its residency
    // bound, or the worker queue is at its admission bound).
    if (conn->stream_parked || conn->queue_parked) return;
    // A v1/v3 payload or v2 chunk body longer than one read is received
    // straight into its pooled buffer instead of through `buf` and a copy.
    std::span<std::uint8_t> into;
    if (conn->assembler.need() > kReadChunk) {
      into = conn->assembler.body_space(kInPlaceRead);
    }
    const bool in_place = !into.empty();
    if (!in_place) {
      // While the stream holds anything, one read completes at most one
      // chunk, so the tap closes before a second could arrive.
      into = std::span<std::uint8_t>(
          buf, conn->stream_holding
                   ? std::clamp<std::size_t>(conn->assembler.need(), 1,
                                             sizeof(buf))
                   : sizeof(buf));
    }
    std::optional<std::size_t> r;
    try {
      r = conn->stream.try_read_some(into.data(), into.size());
    } catch (const TransportError&) {
      drop(conn);
      return;
    }
    if (!r) return;  // EAGAIN: fully drained the socket for now
    if (*r == 0) {
      if (conn->rx_stream != nullptr) {
        // EOF inside a chunked message: the stream can never complete and
        // its handler would wait forever — cut it (truncation is an
        // error, same as a torn v1 frame).
        drop(conn);
        return;
      }
      // Orderly EOF. A pipelining client may half-close after its last
      // request; responses still in flight must be delivered, so the
      // connection only dies once its outbox drains (see flush()).
      conn->read_closed = true;
      if (fully_drained(*conn)) {
        drop(conn);
      } else {
        update_interest(*conn);
      }
      return;
    }
    conn->last_activity = std::chrono::steady_clock::now();
    try {
      std::span<const std::uint8_t> fresh(buf, *r);
      if (in_place) {
        conn->assembler.commit(*r);
        fresh = {};  // pump() only dispatches a completed payload
      }
      pump(conn, fresh, conn->last_activity);
    } catch (const TransportError&) {
      // Malformed or over-limit frame: the byte stream cannot be trusted
      // past this point; cut the connection.
      drop(conn);
      return;
    }
    // Responses served inline (and sheds) leave before the next read, and
    // the flush decides whether a stream closes the tap.
    if (!flush_if_pending(conn)) return;
  }
}

bool SoapEventServer::flush_if_pending(const std::shared_ptr<Conn>& conn) {
  if (!conn->flush_pending) return true;
  conn->flush_pending = false;
  return flush(conn);
}

/// Feed bytes through the assembler, dispatching completed v1/v3 requests
/// (served inline or queued to the workers) and v2 chunks to the
/// connection's stream. A read buffer is always consumed whole: chunks it
/// completes while the stream is busy wait in stream_waiting, and the
/// flush after the pump closes the read tap on them. Runs on the owning
/// reactor; the caller flushes what it leaves pending (flush_if_pending).
void SoapEventServer::pump(const std::shared_ptr<Conn>& conn,
                           std::span<const std::uint8_t> data,
                           std::chrono::steady_clock::time_point arrived) {
  for (;;) {
    soap::WireMessage request;
    std::optional<StreamChunk> chunk;
    {
      // The frame_read stage: socket bytes to one assembled, canonical
      // request or chunk. It stops before admission (and a stream's
      // callback), so an exchange served inline is timed by its own
      // stages, not billed to frame reading.
      obs::StageTimer frame_timer(obs_, obs::Stage::kFrameRead);
      for (;;) {
        data = data.subspan(conn->assembler.feed(data));
        if (conn->assembler.hello_ready()) {
          answer_hello(conn);
        } else if (conn->assembler.chunk_ready()) {
          if (conn->rx_stream == nullptr) begin_stream(conn);
          chunk = conn->assembler.take_chunk();
          break;
        } else if (conn->assembler.need() == 0) {
          break;  // a request (or an Accept, which take() refuses)
        } else if (data.empty()) {
          return;
        }
      }
      if (!chunk) {
        // Flags are latched before take() resets the assembler. Frames
        // leave it in wire order on this (the owning) reactor — the order
        // the mirrored table requires — so the rest of the server, the
        // response cache included, sees canonical bytes; a desync throws,
        // which cuts the connection.
        const std::uint8_t flags = conn->assembler.frame_flags();
        request = conn->assembler.take();
        if (conn->v3) {
          request.payload =
              conn->v3->unframe(std::move(request.payload), flags);
        } else if (flags != 0) {
          throw TransportError("v3 message flags on a connection without "
                               "a negotiated channel");
        }
      }
    }
    if (chunk) {
      on_stream_item(conn, std::move(*chunk));
    } else {
      admit(conn, std::move(request), arrived);
    }
    // A take left the assembler wanting more, so no more input means no
    // item.
    if (data.empty()) return;
  }
}

void SoapEventServer::answer_hello(const std::shared_ptr<Conn>& conn) {
  // BXTP v3 handshake (FORMAT.md §"BXTP v3"). A Hello is only legal as the
  // connection's first frame — the Accept bypasses the response sequencing
  // (it answers no request), so nothing may be in flight.
  const HelloFrame hello = conn->assembler.take_hello();
  if (conn->v3 || conn->next_seq != 0) {
    throw TransportError("Hello on a connection already in use");
  }
  // A peer that probed with v3 framing but cannot speak it is answered
  // with v1 and kept on plain frames.
  AcceptFrame accept{kFrameVersion};
  if (hello.max_version >= kFrameVersionNegotiated) {
    const V3Terms t = negotiate_v3(
        v3_offer_, {{hello.dict_max_entries, hello.dict_max_bytes},
                    hello.transforms, hello.auth});
    accept = {kFrameVersionNegotiated, t.dict.max_entries, t.dict.max_bytes,
              t.transforms, t.auth};
    // The assembler decompresses and verifies incoming chunks itself, in
    // wire order on this (the owning) reactor.
    conn->v3.emplace(t, endpoint_).arm(conn->assembler);
  }
  ByteWriter reply(buffer_pool_.acquire(64));
  encode_accept(reply, accept);
  {
    std::lock_guard lock(conn->mu);
    conn->outbox.push_back({ChunkFrame{{}, 0, reply.take()}});
  }
  conn->flush_pending = true;
}

void SoapEventServer::admit(const std::shared_ptr<Conn>& conn,
                            soap::WireMessage request,
                            std::chrono::steady_clock::time_point arrived) {
  const std::uint64_t seq = conn->next_seq++;
  std::size_t inflight_now = 0;
  {
    std::lock_guard lock(conn->mu);
    ++conn->inflight;
    inflight_now = conn->inflight - conn->stream_slots;
    // A second request arriving before the first response left is
    // pipelining.
    if (pipelined_ != nullptr &&
        (conn->inflight > 1 || !conn->outbox.empty())) {
      pipelined_->add();
    }
  }
  if (run_inline_) {
    // Run to completion on this reactor. The exchange is resident (read,
    // not yet served) until complete() commits its response; past
    // max_queue_depth such exchanges across all reactors, shed. Nothing
    // parks: while it serves, this reactor is not reading anyway.
    const std::size_t depth =
        queue_depth_.fetch_add(1, std::memory_order_acq_rel);
    if (max_queue_depth_ > 0 && depth >= max_queue_depth_) {
      queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
      shed(conn, seq, std::move(request));
      return;
    }
    if (queue_depth_gauge_ != nullptr) queue_depth_gauge_->add();
    if (queue_waterline_ != nullptr) queue_waterline_->add(1);
    if (serve(Job{conn, seq, std::move(request), arrived, {}})) {
      conn->flush_pending = true;
    }
    queue_depth_.fetch_sub(1, std::memory_order_acq_rel);
    if (queue_depth_gauge_ != nullptr) queue_depth_gauge_->sub();
    if (queue_waterline_ != nullptr) queue_waterline_->sub(1);
    return;
  }
  // Worker pool. A connection past its pipelining allowance is shed
  // outright; a request against a full queue is shed AND the connection
  // parked (the frames being shed were already read — the park stops the
  // next ones at the kernel's TCP window instead).
  if (max_inflight_per_conn_ > 0 && inflight_now > max_inflight_per_conn_) {
    shed(conn, seq, std::move(request));
    return;
  }
  bool admitted = true;
  bool queue_full = false;
  {
    std::lock_guard lock(jobs_mu_);
    if (max_queue_depth_ > 0 && jobs_.size() >= max_queue_depth_) {
      admitted = false;
    } else {
      jobs_.push_back(Job{conn, seq, std::move(request), arrived, {}});
      queue_depth_.store(jobs_.size(), std::memory_order_release);
      if (queue_depth_gauge_ != nullptr) {
        queue_depth_gauge_->set(static_cast<std::int64_t>(jobs_.size()));
      }
      if (queue_waterline_ != nullptr) queue_waterline_->add(1);
      queue_full = max_queue_depth_ > 0 && jobs_.size() >= max_queue_depth_;
    }
  }
  if (admitted) {
    jobs_cv_.notify_one();
  } else {
    shed(conn, seq, std::move(request));
    queue_full = true;
  }
  if (queue_full) park_for_queue(conn);
}

std::vector<std::uint8_t> SoapEventServer::encode_fault(
    const soap::Fault& fault) {
  const soap::SoapEnvelope env = soap::SoapEnvelope::make_fault(fault);
  ByteWriter out(buffer_pool_, 256);
  const std::size_t len_pos = begin_frame(out, encoding_->content_type());
  encoding_->serialize_into(env.document(), out);
  end_frame(out, len_pos);
  return out.take();
}

void SoapEventServer::begin_stream(const std::shared_ptr<Conn>& conn) {
  if (!stream_handler_) {
    throw TransportError(
        "chunked frame on an endpoint without a stream handler");
  }
  const std::uint64_t seq = conn->next_seq++;
  auto st = std::make_shared<StreamState>(
      *this, *conn, seq, conn->assembler.stream_content_type());
  // A negotiated stream compresses, and a signed one gets its own
  // per-stream authenticator.
  if (conn->v3) st->tx_auth = conn->v3->arm(st->encoder);
  {
    std::lock_guard lock(conn->mu);
    ++conn->inflight;
    ++conn->stream_slots;
    conn->completed[seq] = Completed{{}, true, true, {}, true};
  }
  conn->rx_stream = std::move(st);
}

void SoapEventServer::on_stream_item(const std::shared_ptr<Conn>& conn,
                                     StreamChunk chunk) {
  if (stream_chunks_ != nullptr) stream_chunks_->add();
  std::shared_ptr<StreamState> st = conn->rx_stream;
  // After End the next bytes start a fresh frame.
  if (chunk.kind == ChunkKind::kEnd) conn->rx_stream = nullptr;
  // The flush after the pump sends what a callback staged and decides
  // whether the stream closes the read tap.
  conn->flush_pending = true;
  if (!runs_stream_jobs(*conn)) {
    run_stream(*st, std::move(chunk));
    return;
  }
  queue_item(conn, {std::move(st), std::move(chunk)});
}

bool SoapEventServer::runs_stream_jobs(const Conn& conn) const {
  // Inline, a stream that compresses or signs would put its request's
  // verification and its response's signing on one reactor: a sibling
  // runs its callbacks and encoder instead, overlapping the owner's reads.
  return !run_inline_ ||
         (reactors_.size() > 1 && conn.v3 &&
          (conn.v3->terms().transforms != 0 ||
           conn.v3->terms().auth_algo() != 0));
}

void SoapEventServer::queue_item(const std::shared_ptr<Conn>& conn,
                                 StreamItem item) {
  {
    std::lock_guard lock(conn->mu);
    // A chunk waiting for its callback is held.
    hold_locked(*conn, item.chunk.bytes.size());
    conn->stream_waiting.push_back(std::move(item));
    if (conn->stream_busy) return;
    conn->stream_busy = true;
  }
  post_stream(conn);
}

void SoapEventServer::post_stream(const std::shared_ptr<Conn>& conn) {
  if (!run_inline_) {
    std::lock_guard lock(jobs_mu_);
    stream_jobs_.push_back(Job{conn, 0, {}, {}, true});
    jobs_cv_.notify_one();
    return;
  }
  Reactor& sibling = *reactors_[(conn->owner->index + 1) % reactors_.size()];
  std::unique_lock lock(sibling.mu);
  if (sibling.closed) {
    lock.unlock();
    return run_stream_items(conn);  // the sibling has stopped
  }
  const bool first = sibling.inbox_empty();
  sibling.jobs.push_back(Job{conn, 0, {}, {}, true});
  lock.unlock();
  if (first) sibling.wakeup.signal();
}

void SoapEventServer::run_stream_items(const std::shared_ptr<Conn>& conn) {
  std::unique_lock lock(conn->mu);
  // Only the items waiting now: later ones go round again, so one stream
  // cannot keep a worker or a sibling reactor from its other work.
  for (std::size_t n = conn->stream_waiting.size(); n > 0 && !conn->dead;
       --n) {
    StreamItem item = std::move(conn->stream_waiting.front());
    conn->stream_waiting.pop_front();
    unhold_locked(*conn, item.chunk.bytes.size());
    lock.unlock();
    // The owner sends what the last item staged and, with this one in
    // hand, may read on.
    request_flush(conn);
    run_stream(*item.stream, std::move(item.chunk));
    lock.lock();
  }
  conn->stream_busy = !conn->dead && !conn->stream_waiting.empty();
  const bool more = conn->stream_busy;
  lock.unlock();
  request_flush(conn);
  if (more) post_stream(conn);
}

void SoapEventServer::run_stream(StreamState& st, StreamChunk chunk) {
  const bool end = chunk.kind == ChunkKind::kEnd;
  if (st.failed) {
    // The rest of a failed request is discarded.
    buffer_pool_.release(std::move(chunk.bytes));
  } else {
    std::optional<soap::Fault> fault;
    try {
      if (st.callbacks == nullptr) {
        st.callbacks = stream_handler_(st.content_type);
        if (st.callbacks == nullptr) {
          throw std::runtime_error("the stream handler made no callbacks");
        }
      }
      if (!end) {
        st.callbacks->on_chunk(std::move(chunk), st.out);
        return;
      }
      st.callbacks->on_end(st.out);
      if (!st.out.finished()) st.out.finish();
      return;
    } catch (const TransportError&) {
      // The connection is gone or the stream broken: nothing to send.
    } catch (const SoapFaultError& e) {
      fault = soap::Fault{e.code(), e.reason(), ""};
    } catch (const DecodeError& e) {
      fault = soap::Fault{"soap:Client", e.what(), ""};
    } catch (const std::exception& e) {
      fault = soap::Fault{"soap:Server", e.what(), ""};
    }
    st.failed = true;
    if (fault && !st.wrote) {
      st.fault_frame = encode_fault(*fault);
    } else {
      // Frames already staged cannot be retracted.
      std::lock_guard lock(st.conn.mu);
      st.conn.cut_seq = std::min(st.conn.cut_seq, st.seq);
    }
  }
  if (end && !st.fault_frame.empty()) {
    // The whole request is in: answer the stream's slot in-band.
    std::lock_guard lock(st.conn.mu);
    if (st.conn.dead) return;
    Completed& slot = st.conn.completed.find(st.seq)->second;
    slot.bytes = std::move(st.fault_frame);
    slot.open = false;
    ++faults_;
    obs_.count_fault();
    release_ready_locked(st.conn);
  }
}

SoapEventServer::StreamState::StreamState(SoapEventServer& server, Conn& c,
                                          std::uint64_t s, std::string ct)
    : srv(server),
      conn(c),
      seq(s),
      content_type(std::move(ct)),
      encoder(server.encoding_->content_type()),
      out(*this, server.buffer_pool_, server.stream_chunk_bytes_,
          server.encoding_.get()) {}

void SoapEventServer::StreamState::write(StreamChunk chunk) {
  wrote = true;
  encoder.chunk(std::move(chunk),
                [this](ChunkFrame f) { srv.stage(conn, seq, std::move(f)); });
}

void SoapEventServer::StreamState::finish() {
  wrote = true;
  encoder.finish([this](ChunkFrame f) { srv.stage(conn, seq, std::move(f)); });
}

void SoapEventServer::hold_locked(Conn& conn, std::size_t n) {
  conn.stream_held += n;
  if (stream_buffered_ != nullptr) stream_buffered_->add(n);
}

void SoapEventServer::unhold_locked(Conn& conn, std::size_t n) {
  conn.stream_held -= n;
  if (stream_buffered_ != nullptr) stream_buffered_->sub(n);
}

void SoapEventServer::stage(Conn& conn, std::uint64_t seq, ChunkFrame frame) {
  const bool last = frame.hdr_size > 0 &&
                    frame.hdr[0] == static_cast<std::uint8_t>(ChunkKind::kEnd);
  std::lock_guard lock(conn.mu);
  if (conn.dead) {
    buffer_pool_.release(std::move(frame.body));
    throw TransportError("connection dropped mid-stream");
  }
  hold_locked(conn, held_bytes(frame));
  Completed& slot = conn.completed.find(seq)->second;
  slot.frames.push_back(std::move(frame));
  slot.open = !last;
  release_ready_locked(conn);
}

bool SoapEventServer::send_some(Conn& conn, std::span<const std::uint8_t> buf,
                                std::size_t& off) {
  while (off < buf.size()) {
    const std::optional<std::size_t> n =
        conn.stream.try_write_some(buf.subspan(off));
    if (!n) return false;
    conn.last_activity = std::chrono::steady_clock::now();
    off += *n;
  }
  return true;
}

bool SoapEventServer::flush(const std::shared_ptr<Conn>& conn) {
  bool should_drop = false;
  bool parked = false;
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) return false;
    std::size_t sent = 0;  // held stream bytes that left
    try {
      while (!conn->outbox.empty()) {
        OutFrame& f = conn->outbox.front();
        obs::StageTimer t(obs_, obs::Stage::kFrameWrite);
        if (!send_some(*conn, f.frame.head(), f.hdr_off) ||
            !send_some(*conn, f.frame.body, f.body_off)) {
          break;
        }
        if (f.stream) {
          sent += held_bytes(f.frame);
          if (stream_flushes_ != nullptr) stream_flushes_->add();
        }
        buffer_pool_.release(std::move(f.frame.body));
        conn->outbox.pop_front();
      }
    } catch (const TransportError&) {
      should_drop = true;
    }
    unhold_locked(*conn, sent);
    conn->want_write = !conn->outbox.empty();
    // Once every earlier byte has left: a stream that failed after its
    // response started is cut, and a half-closed pipeliner is done.
    should_drop = should_drop ||
                  (conn->outbox.empty() &&
                   (conn->next_to_send >= conn->cut_seq ||
                    (conn->read_closed && conn->inflight == 0)));
    // The read tap: the next read may bring one more chunk, and a busy
    // item may still write one, so it stays closed while what the stream
    // holds (bar the busy item) and those two would pass two chunks.
    const std::size_t owed =
        conn->stream_held + (conn->stream_busy ? stream_chunk_bytes_ : 0);
    parked = owed > stream_chunk_bytes_;
    conn->stream_holding = owed > 0;
  }
  if (should_drop) {
    drop(conn);
    return false;
  }
  if (parked != conn->stream_parked) {
    conn->stream_parked = parked;
    // The pause was OUR backpressure, not peer silence; don't let the
    // idle sweep bill the peer for it.
    if (!parked) conn->last_activity = std::chrono::steady_clock::now();
  }
  update_interest(*conn);
  return true;
}

void SoapEventServer::drop(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *conn->owner;
  {
    std::lock_guard lock(conn->mu);
    if (conn->dead) return;
    conn->dead = true;
    // Undeliverable responses go back to the pool instead of leaking.
    for (OutFrame& f : conn->outbox) {
      buffer_pool_.release(std::move(f.frame.body));
    }
    conn->outbox.clear();
    for (auto& [seq, c] : conn->completed) {
      buffer_pool_.release(std::move(c.bytes));
      for (ChunkFrame& f : c.frames) buffer_pool_.release(std::move(f.body));
    }
    conn->completed.clear();
    unhold_locked(*conn, conn->stream_held);
    for (StreamItem& item : conn->stream_waiting) {
      buffer_pool_.release(std::move(item.chunk.bytes));
    }
    conn->stream_waiting.clear();
  }
  conn->rx_stream = nullptr;
  if (conn->queue_parked) {
    conn->queue_parked = false;
    --r.queue_parked_conns;
    queue_parked_total_.fetch_sub(1, std::memory_order_relaxed);
  }
  r.epoll.del(conn->stream.fd());
  r.conns.erase(conn->stream.fd());
  conn->stream.close();
  --active_;
  if (active_gauge_ != nullptr) active_gauge_->sub();
  update_listener_interest(r);
  if (max_connections_ > 0 && r.index != 0) {
    // Room opened under the ceiling: a listener parked on reactor 0 must
    // hear about it (its loop re-checks on wakeup).
    reactors_[0]->wakeup.signal();
  }
}

void SoapEventServer::sweep_idle(Reactor& r) {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::milliseconds(read_timeout_ms_);
  std::vector<std::shared_ptr<Conn>> stale;
  for (auto& [fd, conn] : r.conns) {
    // A connection parked by OUR backpressure (its stream or the worker
    // queue) is not idle — the peer may be waiting on us.
    if (conn->stream_parked || conn->queue_parked) continue;
    if (now - conn->last_activity > limit) stale.push_back(conn);
  }
  // The slowloris defense: a peer that goes silent for read_timeout_ms is
  // disconnected, mid-frame or not.
  for (const auto& conn : stale) drop(conn);
}

void SoapEventServer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock lock(jobs_mu_);
      jobs_cv_.wait(lock, [this] {
        return !jobs_.empty() || !stream_jobs_.empty() ||
               stopping_.load(std::memory_order_acquire);
      });
      if (!stream_jobs_.empty()) {
        job = std::move(stream_jobs_.front());
        stream_jobs_.pop_front();
      } else if (jobs_.empty()) {
        // stopping_ and nothing queued: the reactors have stopped
        // reading, so no more work can arrive.
        return;
      } else {
        job = std::move(jobs_.front());
        jobs_.pop_front();
        queue_depth_.store(jobs_.size(), std::memory_order_release);
        if (queue_depth_gauge_ != nullptr) {
          queue_depth_gauge_->set(static_cast<std::int64_t>(jobs_.size()));
        }
        if (queue_waterline_ != nullptr) queue_waterline_->sub(1);
      }
    }
    if (job.stream) {
      run_stream_items(job.conn);
      continue;
    }
    if (max_queue_depth_ > 0 &&
        queue_parked_total_.load(std::memory_order_relaxed) > 0 &&
        queue_depth_.load(std::memory_order_acquire) * 2 <=
            max_queue_depth_) {
      // Drained below the low-water mark with connections parked: every
      // reactor re-checks its parked set on the next pass.
      for (auto& r : reactors_) r->wakeup.signal();
    }
    const std::shared_ptr<Conn> conn = job.conn;
    if (serve(std::move(job))) request_flush(conn);
  }
}

bool SoapEventServer::serve(Job job) {
  // Safe to read off-reactor: set while handling the Hello, before any
  // request of the connection could be queued (the jobs_mu_ handoff orders
  // the write against a worker's read; inline, it is the same thread).
  const bool v3 = job.conn->v3.has_value();
  // Idempotent-response cache: a byte-identical repeat of a declared
  // idempotent request is answered straight from the cached canonical
  // payload — no deserialize, no handler, no serialize. The job already
  // passed admission, so only the CPU work is skipped.
  if (respcache_) {
    if (ResponseCache::Payload hit = respcache_->lookup(
            encoding_->content_type(), job.request.payload)) {
      buffer_pool_.release(std::move(job.request.payload));
      ByteWriter out(buffer_pool_.acquire(hit->size() + 64));
      if (v3) {
        // Canonical payload; the owning reactor frames (and dictionary-
        // codes) it in wire order at release time.
        out.write_bytes(*hit);
        return complete(job.conn, job.seq, out.take(), /*framed=*/false);
      }
      const std::size_t len_pos = begin_frame(out, encoding_->content_type());
      out.write_bytes(*hit);
      end_frame(out, len_pos);
      return complete(job.conn, job.seq, out.take());
    }
  }
  // Hoisted out of the handler lambda: the request's wire bytes stay
  // alive through the exchange (the decoded tree views them anyway), so
  // a cacheable response can be inserted under its request key.
  SharedBuffer wire;
  bool cacheable = false;
  soap::SoapEnvelope response = [&]() -> soap::SoapEnvelope {
    try {
      soap::SoapEnvelope request = [&] {
        obs_.stage_bytes(obs::Stage::kDeserialize, job.request.payload.size());
        obs::StageTimer t(obs_, obs::Stage::kDeserialize);
        // Adopting the payload keeps the zero-copy path (DESIGN §9): packed
        // arrays decode as views, and the wire buffer recycles into the
        // pool when the request tree drops its last reference.
        wire = SharedBuffer::adopt(std::move(job.request.payload),
                                   &buffer_pool_);
        return soap::SoapEnvelope(encoding_->deserialize_shared(wire));
      }();
      cacheable = respcache_.has_value() &&
                  idempotent_ops_.contains(operation_name(request));
      // Deadline propagation: the client's remaining budget, stamped as
      // a relative header and interpreted against OUR arrival clock (no
      // clock sync assumed). A job whose budget expired while it waited
      // is dropped before the handler runs — the caller has already
      // given up, so the work would be wasted either way.
      std::optional<std::chrono::steady_clock::time_point> deadline;
      if (const auto budget = soap::get_deadline(request)) {
        deadline = job.arrived + *budget;
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
      // The peer sent bytes we could not decode — the client's fault,
      // answered in-band; the connection stays up.
      return soap::SoapEnvelope::make_fault({"soap:Client", e.what(), ""});
    } catch (const std::exception& e) {
      return soap::SoapEnvelope::make_fault({"soap:Server", e.what(), ""});
    }
  }();
  if (response.is_fault()) {
    ++faults_;
    obs_.count_fault();
  }
  // One pooled buffer per response. v1: BXTP header reserved up front
  // and backpatched, so the reactor writes header + payload as one
  // unit. v3: the buffer holds the canonical (pre-dictionary) payload —
  // the frame is added by the owning reactor in wire order, which is
  // the order the response dictionary must see.
  ByteWriter out(buffer_pool_, 256);
  if (!v3) {
    const std::size_t len_pos = begin_frame(out, encoding_->content_type());
    {
      obs::StageTimer t(obs_, obs::Stage::kSerialize);
      encoding_->serialize_into(response.document(), out);
    }
    end_frame(out, len_pos);
    obs_.stage_bytes(obs::Stage::kSerialize, out.size() - len_pos - 8);
    if (cacheable && !response.is_fault()) {
      const auto payload = out.bytes().subspan(len_pos + 8);
      respcache_->insert(encoding_->content_type(), wire.bytes(),
                         std::make_shared<const std::vector<std::uint8_t>>(
                             payload.begin(), payload.end()));
    }
    return complete(job.conn, job.seq, out.take());
  }
  {
    obs::StageTimer t(obs_, obs::Stage::kSerialize);
    encoding_->serialize_into(response.document(), out);
  }
  obs_.stage_bytes(obs::Stage::kSerialize, out.size());
  if (cacheable && !response.is_fault()) {
    respcache_->insert(encoding_->content_type(), wire.bytes(),
                       std::make_shared<const std::vector<std::uint8_t>>(
                           out.bytes().begin(), out.bytes().end()));
  }
  return complete(job.conn, job.seq, out.take(), /*framed=*/false);
}

void SoapEventServer::release_ready_locked(Conn& conn) {
  // Release strictly in request order: a response completed out of order
  // parks in `completed` until every earlier sequence has passed. A
  // stream's slot at the head passes on the frames staged so far and
  // holds the order until its End; a cut one holds it for good.
  for (auto it = conn.completed.find(conn.next_to_send);
       it != conn.completed.end() && conn.next_to_send < conn.cut_seq;
       it = conn.completed.find(conn.next_to_send)) {
    Completed& c = it->second;
    for (ChunkFrame& f : c.frames) conn.outbox.push_back({std::move(f), true});
    c.frames.clear();
    if (c.open) return;
    if (c.framed) {
      if (!c.bytes.empty()) {
        conn.outbox.push_back({ChunkFrame{{}, 0, std::move(c.bytes)}});
      }
    } else {
      // BXTP v3 response: frame (and dictionary-code) the canonical
      // payload HERE, where responses are back in wire order — the only
      // order the client's mirrored table can follow. Runs under conn.mu,
      // which serializes every use of the send table.
      ByteWriter framed(buffer_pool_.acquire(c.bytes.size() + 64));
      conn.v3->frame(framed, c.bytes, encoding_->content_type());
      buffer_pool_.release(std::move(c.bytes));
      conn.outbox.push_back({ChunkFrame{{}, 0, framed.take()}});
    }
    if (c.stream) --conn.stream_slots;
    conn.completed.erase(it);
    ++conn.next_to_send;
    --conn.inflight;
    // Counted when the reply is committed to the wire queue, before the
    // bytes leave.
    ++exchanges_;
    obs_.count_exchange();
  }
}

bool SoapEventServer::complete(const std::shared_ptr<Conn>& conn,
                               std::uint64_t seq,
                               std::vector<std::uint8_t> frame, bool framed) {
  std::lock_guard lock(conn->mu);
  if (conn->dead) {
    buffer_pool_.release(std::move(frame));
    if (conn->inflight > 0) --conn->inflight;
    return false;
  }
  conn->completed.emplace(seq, Completed{std::move(frame), framed, false, {}, false});
  const std::size_t before = conn->outbox.size();
  release_ready_locked(*conn);
  return conn->outbox.size() != before;
}

void SoapEventServer::request_flush(const std::shared_ptr<Conn>& conn) {
  Reactor& r = *conn->owner;
  bool first = false;
  {
    std::lock_guard lock(r.mu);
    first = r.inbox_empty();
    r.flush_queue.push_back(conn);
  }
  // The owning reactor drains its whole inbox per wakeup, so only the
  // emptiness transition needs a signal — under load this coalesces a
  // burst of completions into one eventfd write + one epoll wakeup.
  if (first) r.wakeup.signal();
}

}  // namespace bxsoap::transport
