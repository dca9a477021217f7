// SoapEventServer — the SOAP server.
// INTERNAL header: construct via SoapServer::create (transport/server.hpp).
//
// One OS thread per connection tops out long before "millions of users":
// at N connections the kernel schedules N mostly-idle threads, and every
// blocked read pins a stack. This server serves the ServerConfig surface
// on SHARDED epoll reactors: `reactor_threads` threads (default one per
// core) each own a slice of the connections end-to-end — their epoll set,
// their frame reassembly, their outbox writes, their idle sweep, their
// eventfd. Thread count is bounded by cores, not by clients, and no lock
// is shared between reactors on the data path: a connection's life
// happens entirely on its owning shard.
//
// Dispatch: who runs the CPU work of an exchange (decode, handler,
// encode). Both modes run the same serve(Job) body.
//  * Run-to-completion (worker_threads = 0, the default): the reactor that
//    assembled a request serves it inline — admission, response-cache
//    lookup, deserialize, deadline check, handler, serialize, complete() —
//    and flushes the connection's outbox before it returns to epoll_wait.
//    No thread handoff and no eventfd signal: the exchange never leaves
//    the thread that read it. A reactor busy in a handler is not reading,
//    so a slow handler stalls only the connections of its own shard.
//  * Worker pool (worker_threads = N > 0): reactors queue assembled
//    requests to a fixed pool of N workers, which complete them back
//    through the owning shard's flush queue and eventfd. This is the
//    choice for slow or blocking handlers: a blocked worker stalls no
//    reactor, so every other connection keeps being read and answered.
//
// Connections reach their shard one way: reactor 0 owns the server's one
// listener and deals accepted sockets round-robin (exactly fair,
// deterministic — N shards under 4N clients each see 4).
//
// Pipelining: a client may write many frames back to back on one
// connection. Each request gets a per-connection sequence number when it
// leaves the FrameAssembler; the connection's completion map releases
// responses strictly in sequence, so M pipelined requests always produce
// M in-order responses. Inline, the sequence order is the serving order;
// with workers, handlers for requests of ONE connection may run
// concurrently and complete in any order — ordering is restored at the
// write queue, not in the handler.
//
// Streaming (BXTP v2): a 256 MiB stream cannot be assembled, so its
// handler is pushed each chunk as the assembler yields it (stream.hpp's
// StreamCallbacks). The callbacks' writes run the stream's ChunkEncoder
// (framing.hpp) on the same thread. Work for a stream leaves its owning
// reactor in one form only: each request chunk (or End) waits in the
// connection's mailbox, and one job per connection, queued or running,
// runs the callbacks for the chunks waiting when it starts, then
// completes back through the flush queue. The job runs on the worker
// pool, if there is one. Inline, it runs on the next reactor for a
// stream that compresses or signs, when there is more than one reactor,
// so that its response's compression and signing overlap the owner
// reading and verifying the request; every other inline stream runs on
// the owner as its chunks arrive. No stream has a thread of its own. The
// encoder stages the response frames in the request's sequence slot of
// the connection's completion map; they reach the outbox, and the wire,
// once every earlier response has left, and later pipelined responses
// follow the stream's End. Backpressure is one read tap: the owning
// reactor parks EPOLLIN while what the stream holds (chunks waiting,
// frames unsent) plus a chunk for a busy job would pass one chunk, and
// while it holds anything a read stops at the field in progress; so a
// fast sender backs up into the kernel's TCP window, a slow receiver
// stalls its own stream and nothing else, and per-stream residency stays
// within 2 chunks regardless of message size. flush() reopens the tap.
//
// The PR 3 zero-copy path carries over intact: receive payloads are
// pool-recycled SharedBuffers decoded as view spans, responses serialize
// into one pooled buffer behind a reserved BXTP header, and the reactor
// writes that single buffer per response. The BufferPool's per-thread
// caches (PR 6) mean each reactor and worker recycles through a private
// free list, so the pool's shared mutex is off the hot path too; inline,
// an exchange's buffers never leave one thread's cache.
//
// Overload (DESIGN.md §12): max_queue_depth bounds the requests read off
// the wire but not yet served. Inline, that is the exchanges in progress
// across all reactors, counted from admission until complete() commits the
// response; a request past the bound is shed, and nothing parks — a busy
// reactor is not reading. With workers it bounds the shared worker queue:
// a request that fills the queue to the bound parks its connection's
// EPOLLIN (the same kernel-TCP-window backpressure streaming uses; workers
// reopen the tap at half the bound); a request arriving while the queue is
// already full — racing shards, or frames behind it in the same read
// buffer — is shed. Either way a shed request is answered at admission
// with a pre-encoded retryable soap:Server/"Overloaded" fault in its
// pipeline slot, so the bound provably holds and pipelined responses stay
// ordered. max_inflight_per_conn (worker pool only) sheds the same way per
// connection, so a firehose pipeliner cannot monopolize the queue. A
// request whose stamped Deadline expired since it was read off the socket
// is dropped after decode, before the handler; the remaining budget
// reaches handlers via soap::DeadlineScope.
//
// Failure taxonomy: DecodeError -> in-band soap:Client fault,
// SoapFaultError/std::exception -> fault envelope, frame-level
// TransportError (bad magic, over-limit length) -> the connection is cut.
// A stream callback that throws before its response's first frame is
// staged gets a v1 fault envelope in the stream's slot once the request's
// End arrives; after that the connection is cut (frames cannot be
// retracted). read_timeout_ms is the slowloris defense: a peer that goes
// silent for that long is disconnected by its shard's idle sweep (a
// connection parked by OUR backpressure is exempt).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/observer.hpp"
#include "soap/any_engine.hpp"
#include "soap/envelope.hpp"
#include "transport/framing.hpp"
#include "transport/respcache.hpp"
#include "transport/server.hpp"
#include "transport/socket.hpp"
#include "transport/stream.hpp"
#include "transport/v3_channel.hpp"

namespace bxsoap::transport {

class SoapEventServer : public SoapServer {
 public:
  using Handler = ServerConfig::Handler;

  /// Starts the reactors (and the worker pool, if configured) immediately.
  explicit SoapEventServer(ServerConfig config);
  ~SoapEventServer() override;

  std::uint16_t port() const noexcept override { return listener_.port(); }

  /// Connections currently owned by a reactor (or in flight to one).
  std::size_t active_connections() const noexcept override {
    return active_.load();
  }
  /// Total exchanges completed (response queued for the wire) since start.
  std::size_t exchanges() const noexcept override { return exchanges_.load(); }
  /// Exchanges whose response was a fault envelope.
  std::size_t faults() const noexcept override { return faults_.load(); }
  /// Reactor shards serving this instance.
  std::size_t reactor_count() const noexcept { return reactors_.size(); }
  /// Reactors plus the fixed worker pool, if any — just the reactors when
  /// exchanges run inline. Streamed exchanges run on these too.
  std::size_t serving_threads() const noexcept override {
    return reactors_.size() + workers_.size();
  }
  /// The pool every connection's buffers come from and go back to.
  const BufferPool& buffer_pool() const noexcept { return buffer_pool_; }

  /// Graceful shutdown: stop accepting and reading, let every request
  /// already assembled finish its handler and flush its response (up to
  /// drain_timeout), then close everything. Idempotent.
  void stop() override;

 private:
  struct Reactor;

  struct Conn;

  /// A response frame in the outbox: a materialized response as its body
  /// alone, or a stream's frame as its ChunkEncoder made it (head + pooled
  /// body), written without re-copying the body.
  struct OutFrame {
    ChunkFrame frame;
    bool stream = false;       // counts in stream.buffered_bytes until sent
    std::size_t hdr_off = 0;   // head bytes already written
    std::size_t body_off = 0;  // body bytes already written
  };

  /// One chunked exchange: its handler's callbacks and the response they
  /// write, which it encodes and stages (as the ResponseWriter's sink) in
  /// its sequence slot on the thread the callbacks run on: the owning
  /// reactor, or one stream job at a time (Conn::stream_busy hands the
  /// stream on; see runs_stream_jobs()).
  struct StreamState final : StreamSink {
    StreamState(SoapEventServer& server, Conn& conn, std::uint64_t seq,
                std::string content_type);
    StreamState(const StreamState&) = delete;  // `out` points at it
    StreamState& operator=(const StreamState&) = delete;
    /// Frame one response chunk, or the End, and stage the frames.
    void write(StreamChunk chunk) override;
    void finish() override;

    SoapEventServer& srv;
    Conn& conn;
    const std::uint64_t seq;  // the response sequence this stream occupies
    const std::string content_type;
    std::unique_ptr<StreamCallbacks> callbacks;  // made at the first item
    std::unique_ptr<StreamAuthenticator> tx_auth;  // outlives `encoder`
    ChunkEncoder encoder;
    ResponseWriter out;
    bool wrote = false;  // the callbacks wrote or finished the response
    /// A callback threw: the rest of the request is discarded. Before the
    /// response started this is the v1 fault envelope (fully framed) the
    /// slot is answered with once End arrives; after it, the slot is cut.
    bool failed = false;
    std::vector<std::uint8_t> fault_frame;
  };

  /// A response sequence slot in the completion map. v1/v2 responses (and
  /// cache hits on v1 connections) arrive fully framed; v3 responses arrive
  /// as the canonical UNFRAMED payload and are framed by the owning reactor
  /// in release_ready_locked — the dictionary transform must run in wire
  /// order, which only the in-order release point can guarantee. A
  /// stream's slot is open from its first chunk until its End frame is
  /// staged; the frames staged meanwhile wait in it for their turn.
  struct Completed {
    std::vector<std::uint8_t> bytes;  // or a failed stream's fault frame
    bool framed = true;
    bool open = false;
    std::vector<ChunkFrame> frames;
    bool stream = false;  // a v2 exchange's slot
  };

  /// A stream's request chunk (or End) waiting for a stream job to run its
  /// callback.
  struct StreamItem {
    std::shared_ptr<StreamState> stream;
    StreamChunk chunk;
  };

  /// One connection's reactor-plus-worker shared state. The owning reactor
  /// has the socket and the assembler exclusively; everything under `mu` is
  /// the response-ordering handshake with the workers.
  struct Conn {
    Conn(TcpStream s, const FrameLimits& limits, BufferPool* pool,
         bool accept_v3)
        : stream(std::move(s)), assembler(limits, pool, accept_v3) {}

    Reactor* owner = nullptr;  // fixed at adoption; read by any thread
    TcpStream stream;          // reactor-only
    FrameAssembler assembler;  // reactor-only
    std::uint64_t next_seq = 0;  // reactor-only: next request sequence
    std::chrono::steady_clock::time_point last_activity;  // reactor-only
    std::uint32_t interest = EPOLLIN;  // reactor-only: the armed events
    bool want_write = false;   // reactor-only: EPOLLOUT wanted
    bool read_closed = false;  // reactor-only: peer EOF seen
    /// Reactor-only streaming state: the stream currently receiving input,
    /// whether EPOLLIN is parked on the stream's residency bound, and
    /// whether reads stop at the field in progress (the stream holds
    /// something, so one read may complete at most one chunk).
    std::shared_ptr<StreamState> rx_stream;
    bool stream_parked = false;
    bool stream_holding = false;
    /// Reactor-only: EPOLLIN parked because this connection filled the
    /// worker queue to max_queue_depth (admission backpressure). Resumed
    /// by the owning reactor once workers drain the queue to half.
    bool queue_parked = false;
    /// Reactor-only: something this reactor did while pumping (an inline
    /// exchange, a shed, a Hello's Accept) grew the outbox; the pump's
    /// caller flushes before going back to epoll_wait.
    bool flush_pending = false;

    /// BXTP v3, engaged by the owning reactor at the Hello, before any
    /// request of this connection is dispatched; the job queue and flush
    /// handoffs order that write against the workers. Its
    /// receive side is reactor-only (the assembler yields wire order); its
    /// send table is touched only in release_ready_locked under `mu`.
    std::optional<V3Channel> v3;

    std::mutex mu;
    /// Responses completed out of order and open stream slots, keyed by
    /// request sequence.
    std::map<std::uint64_t, Completed> completed;
    /// In-order responses waiting for (or mid-) socket write.
    std::deque<OutFrame> outbox;
    std::uint64_t next_to_send = 0;  // sequence the outbox tail expects
    /// Requests and streams dispatched whose response is not yet wholly in
    /// the outbox, and how many of them are streams (max_inflight_per_conn
    /// counts requests only).
    std::size_t inflight = 0;
    std::size_t stream_slots = 0;
    /// Request chunks waiting for a stream job, in wire order, and whether
    /// a job that runs them is queued or running (at most one per
    /// connection, so a stream's state passes from job to job).
    std::deque<StreamItem> stream_waiting;
    bool stream_busy = false;
    /// What stream.buffered_bytes counts for this connection: the waiting
    /// items and the chunk frames staged but not yet written. The item a
    /// job has in hand is not counted; stream_busy answers for its output
    /// in the read tap's rule.
    std::size_t stream_held = 0;
    /// A stream failed after its response started: the connection is cut
    /// once every response before this sequence has left.
    std::uint64_t cut_seq = std::numeric_limits<std::uint64_t>::max();
    bool dead = false;  // reactor dropped the conn; workers discard results
  };

  struct Job {
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;
    soap::WireMessage request;
    /// When the request's bytes came off the socket: the stamped Deadline
    /// header counts from here, so time spent queued (or pipelined behind
    /// an inline exchange) is charged against the client's budget.
    std::chrono::steady_clock::time_point arrived;
    /// Set to run the connection's waiting stream items, not a request.
    bool stream = false;
  };

  /// One shard: a reactor thread plus everything it owns. Nothing here is
  /// touched by another reactor's loop; `mu` guards only the inbound
  /// handoff queues that workers, siblings and reactor 0 push into.
  struct Reactor {
    std::size_t index = 0;
    Epoll epoll;
    EventFd wakeup;
    bool accept_armed = false;  // reactor 0 only: listener_ in epoll
    std::unordered_map<int, std::shared_ptr<Conn>> conns;  // reactor-only

    /// Cross-thread inbox. `incoming` carries accepted sockets dealt to
    /// this shard; `flush_queue` the connections workers and siblings
    /// completed work for (responses and stream chunks alike); `jobs` the
    /// stream jobs of the previous reactor's connections (see
    /// runs_stream_jobs()). Once `closed` (the loop has ended), siblings
    /// run their jobs themselves.
    std::mutex mu;
    std::vector<TcpStream> incoming;
    std::vector<std::shared_ptr<Conn>> flush_queue;
    std::vector<Job> jobs;
    bool closed = false;
    /// mu held: nothing queued, so a push must signal the wakeup.
    bool inbox_empty() const {
      return incoming.empty() && flush_queue.empty() && jobs.empty();
    }

    obs::Histogram* loop_ns = nullptr;  // reactor.N.loop.ns
    obs::Counter* assigned = nullptr;   // reactor.N.connections

    /// Reactor-only: how many of this shard's connections are
    /// queue_parked, so the unpark scan is skipped when none are.
    std::size_t queue_parked_conns = 0;

    std::thread thread;
  };

  void reactor_loop(Reactor& r);
  void worker_loop();
  /// One exchange, in either dispatch mode: response-cache lookup,
  /// deserialize, deadline check, handler, serialize, complete(). Returns
  /// complete()'s verdict: whether the connection now has bytes to flush.
  bool serve(Job job);

  // Reactor-side helpers. Those taking a Conn run on its owning reactor.
  void accept_ready(Reactor& r);
  void adopt(Reactor& r, TcpStream stream);
  void read_ready(const std::shared_ptr<Conn>& conn);
  void pump(const std::shared_ptr<Conn>& conn,
            std::span<const std::uint8_t> data,
            std::chrono::steady_clock::time_point arrived);
  /// BXTP v3 handshake: negotiate from the assembled Hello and queue the
  /// Accept ahead of every response (flushed by the pump's caller).
  void answer_hello(const std::shared_ptr<Conn>& conn);
  /// Admission control for one assembled request, then dispatch: serve it
  /// inline or queue it to the workers.
  void admit(const std::shared_ptr<Conn>& conn, soap::WireMessage request,
             std::chrono::steady_clock::time_point arrived);
  /// `fault` as one v1 fault envelope frame, in a pooled buffer.
  std::vector<std::uint8_t> encode_fault(const soap::Fault& fault);
  void begin_stream(const std::shared_ptr<Conn>& conn);
  /// Hand one taken request chunk to its callback: at once on the owner,
  /// else through the connection's mailbox to a stream job.
  void on_stream_item(const std::shared_ptr<Conn>& conn, StreamChunk chunk);
  /// Whether the connection's stream callbacks run as stream jobs off its
  /// owning reactor: always with workers; inline, for a channel that
  /// compresses or signs when there is a sibling reactor.
  bool runs_stream_jobs(const Conn& conn) const;
  /// Owning reactor: count one item in and, unless a job is busy with
  /// the connection's items, post one.
  void queue_item(const std::shared_ptr<Conn>& conn, StreamItem item);
  /// Queue a job for the connection's stream items: to the workers, or
  /// inline to the next reactor.
  void post_stream(const std::shared_ptr<Conn>& conn);
  /// A stream job: run the callbacks of the items waiting when it starts,
  /// handing each one's frames to the owner, then post again if more came.
  void run_stream_items(const std::shared_ptr<Conn>& conn);
  /// Run one item's callback (the factory first, for a stream's first
  /// item) and settle a failure: fault the slot or mark it cut.
  void run_stream(StreamState& st, StreamChunk chunk);
  /// A stream's frame, staged in its slot (StreamState's encoder's
  /// output); the End frame closes the slot.
  void stage(Conn& conn, std::uint64_t seq, ChunkFrame frame);
  /// conn.mu held: `n` stream bytes more or fewer held (Conn::stream_held),
  /// mirrored in stream.buffered_bytes.
  void hold_locked(Conn& conn, std::size_t n);
  void unhold_locked(Conn& conn, std::size_t n);
  /// Arm the epoll events the connection's state asks for, if changed.
  void update_interest(Conn& conn);
  /// Write what the connection has ready. Returns false once the
  /// connection is dropped (a write failed, or a half-closed peer got its
  /// last response).
  bool flush(const std::shared_ptr<Conn>& conn);
  /// flush()'s one partial-write step: write what the socket takes of
  /// `buf` past `off`, advancing `off`. True once all of `buf` is written,
  /// false if the socket would block first.
  static bool send_some(Conn& conn, std::span<const std::uint8_t> buf,
                        std::size_t& off);
  /// After a pump on the owning reactor: flush if it left bytes pending.
  /// Returns false once the connection is dropped.
  bool flush_if_pending(const std::shared_ptr<Conn>& conn);
  void drop(const std::shared_ptr<Conn>& conn);
  void sweep_idle(Reactor& r);
  /// Admission backpressure: close the connection's read tap because it
  /// filled the worker queue; reopened by maybe_unpark_queue.
  void park_for_queue(const std::shared_ptr<Conn>& conn);
  /// Re-arm EPOLLIN on this shard's queue-parked connections once the
  /// workers have drained the queue to half of max_queue_depth.
  void maybe_unpark_queue(Reactor& r);
  /// Refuse one request at admission: recycle its payload and complete
  /// its sequence slot with the pre-encoded retryable Overloaded fault.
  /// Runs on the owning reactor, which flushes afterwards.
  void shed(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
            soap::WireMessage request);
  void update_listener_interest(Reactor& r);
  bool fully_drained(Conn& conn);
  /// conn.mu held: move newly in-order completed responses to the outbox.
  void release_ready_locked(Conn& conn);

  // Hand a finished response to the connection. `framed` false means
  // `frame` is a canonical v3 payload still to be framed (and dictionary-
  // coded) at release time. Returns whether the outbox grew: the caller
  // flushes (on the owning reactor) or asks the owner to (request_flush).
  bool complete(const std::shared_ptr<Conn>& conn, std::uint64_t seq,
                std::vector<std::uint8_t> frame, bool framed = true);
  void request_flush(const std::shared_ptr<Conn>& conn);

  std::unique_ptr<soap::AnyEncoding> encoding_;
  Handler handler_;
  /// worker_threads == 0: every exchange runs on the reactor that read it.
  bool run_inline_ = true;
  StreamHandler stream_handler_;
  std::size_t stream_chunk_bytes_ = 1u << 20;
  /// Declared before listener_/threads so it outlives every SharedBuffer
  /// still referenced by in-flight decoded trees at teardown.
  BufferPool buffer_pool_;
  /// The one listener, owned by reactor 0.
  TcpListener listener_;
  int read_timeout_ms_ = 0;
  std::size_t max_connections_ = 0;
  std::chrono::milliseconds drain_timeout_{1000};

  // Overload control (DESIGN.md §12). The shed frame is pre-encoded once:
  // refusing work must not cost a serialize on the reactor thread.
  std::size_t max_queue_depth_ = 0;
  std::size_t max_inflight_per_conn_ = 0;
  std::vector<std::uint8_t> shed_frame_;
  /// BXTP v3: the Hello handling switch, this server's offer, and what
  /// every connection's channel borrows (frame limits included).
  bool accept_v3_ = true;
  V3Terms v3_offer_;
  V3Endpoint endpoint_;
  /// Idempotent-response cache; engaged only when the config declares
  /// idempotent operations.
  std::optional<ResponseCache> respcache_;
  IdempotentOpSet idempotent_ops_;
  /// Requests admitted but not yet served. With workers: a mirror of
  /// jobs_.size(), readable without jobs_mu_ (reactors poll it on every
  /// loop pass to decide unparking). Inline: exchanges in progress across
  /// all reactors, from admission until complete() commits the response.
  std::atomic<std::size_t> queue_depth_{0};
  /// Total queue-parked connections across shards; workers consult it to
  /// decide whether draining below half the bound warrants a wakeup.
  std::atomic<std::size_t> queue_parked_total_{0};

  obs::MetricsObserver obs_;  // detached when no registry is given
  obs::IoStats* io_ = nullptr;
  obs::Gauge* active_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* accepted_ = nullptr;
  obs::Counter* wakeups_ = nullptr;
  obs::Counter* pipelined_ = nullptr;
  obs::Counter* shed_ = nullptr;       // requests refused with Overloaded
  obs::Counter* parks_ = nullptr;      // overload.parks: read taps closed
  obs::Counter* expired_ = nullptr;    // expired.dropped: deadline drops
  obs::Waterline* queue_waterline_ = nullptr;  // admitted, not yet served
  obs::Counter* stream_chunks_ = nullptr;    // request chunks received
  obs::Counter* stream_flushes_ = nullptr;   // response chunk frames sent
  obs::Waterline* stream_buffered_ = nullptr;  // stream chunk residency
  obs::Histogram* loop_ns_ = nullptr;  // rollup across all shards

  /// The shards. unique_ptr keeps each Reactor's address stable for
  /// Conn::owner across the vector's lifetime.
  std::vector<std::unique_ptr<Reactor>> reactors_;
  std::size_t next_reactor_ = 0;  // reactor-0-only: round-robin cursor

  // Worker job queue (shared by all shards; workers are a common pool).
  // Unused when exchanges run inline.
  std::mutex jobs_mu_;
  std::condition_variable jobs_cv_;
  std::deque<Job> jobs_;
  /// Stream jobs, at most one per connection: outside the admission
  /// bound and its metrics, and served first.
  std::deque<Job> stream_jobs_;

  std::vector<std::thread> workers_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<std::size_t> active_{0};
  std::atomic<std::size_t> exchanges_{0};
  std::atomic<std::size_t> faults_{0};
};

}  // namespace bxsoap::transport
