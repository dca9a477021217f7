// Concurrency ladder for the sharded epoll event server in both dispatch
// modes (run-to-completion on the reactors, the default, and a worker pool
// of one worker per core), same encoding, same handler, same clients —
// plus a c10k saturation ladder.
//
// Two client drivers:
//
//  * Thread driver (1..256 clients): N client threads, one persistent
//    connection each, each firing an equal share of the leg's op total.
//    The share is fixed per client rather than drawn from a shared
//    budget: on one core, thread spawn is slow enough that early
//    spawners would drain a shared budget before late ones ever dialed,
//    quietly turning a 256-client leg into a ~50-client one.
//
//  * Saturation driver (1k/4k/10k connections): one epoll-driven client
//    thread multiplexing every connection, because 10 000 client THREADS
//    would benchmark the client, not the server. Connections are dialed
//    serially (blocking), then each cycles write-request / read-response
//    ops_per_conn times under epoll. The legs run at reactor_threads = 1
//    and = nproc so the
//    sharding win is measurable (on a single-core host the two legs are
//    identical and the nproc leg is skipped — noted in the snapshot).
//    The 10k rung clamps to the fd rlimit: each connection costs two
//    descriptors in this one process (client end + server end).
//
// Reported per leg: throughput, exact p50/p95/p99 latency
// (bench::LatencySamples), the server's thread count — reactors plus
// workers, bounded by configuration rather than by clients — and, for
// saturation legs, the server pool hit rate (the per-thread buffer caches
// are the difference between ~60% and >95% here). Registry snapshot:
// BENCH_concurrency.json.
//
//   bench_concurrency               # thread ladder + c10k ladder
//   bench_concurrency --short       # CI ladder: 1 / 8 / 32, fewer ops
//   bench_concurrency --reactors N  # pin event-server reactor_threads
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "services/verification.hpp"
#include "soap/engine.hpp"
#include "transport/bindings.hpp"
#include "transport/server.hpp"
#include "workload/lead.hpp"

namespace {

using namespace bxsoap;
using namespace bxsoap::soap;
using namespace bxsoap::transport;

constexpr std::size_t kLeads = 50;  // per-request payload (~moderate frame)

struct LegResult {
  double seconds = 0.0;
  std::size_t ops = 0;
  bench::LatencySamples latency;
  std::size_t server_threads = 0;
  double pool_hit_rate = -1.0;  // saturation legs only
};

/// N client threads, each serving an equal share of `total_ops` against
/// the server at `port`.
LegResult drive_clients(std::uint16_t port, std::size_t clients,
                        std::size_t total_ops) {
  const SoapEnvelope request =
      services::make_data_request(workload::make_lead_dataset(kLeads));
  std::atomic<std::size_t> failures{0};
  std::vector<bench::LatencySamples> per_thread(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);

  const auto start = std::chrono::steady_clock::now();
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t quota =
        total_ops / clients + (c < total_ops % clients ? 1 : 0);
    threads.emplace_back([&, c, quota] {
      try {
        SoapEngine<BxsaEncoding, TcpClientBinding> client(
            {}, TcpClientBinding(port));
        per_thread[c].reserve(quota);
        for (std::size_t i = 0; i < quota; ++i) {
          const auto t0 = std::chrono::steady_clock::now();
          SoapEnvelope resp = client.call(SoapEnvelope(request));
          per_thread[c].record(std::chrono::steady_clock::now() - t0);
          if (!services::parse_verify_response(resp).ok) ++failures;
        }
      } catch (const std::exception& e) {
        ++failures;
        std::fprintf(stderr, "client %zu: %s\n", c, e.what());
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto elapsed = std::chrono::steady_clock::now() - start;

  LegResult r;
  r.seconds = std::chrono::duration<double>(elapsed).count();
  for (const auto& samples : per_thread) r.latency.merge(samples);
  r.ops = r.latency.count();  // completed calls; an aborted client's
                              // unserved share is simply not counted
  if (failures.load() != 0) {
    std::fprintf(stderr, "%zu failed exchanges\n", failures.load());
  }
  return r;
}

/// Serialize one request as its exact wire frame.
std::vector<std::uint8_t> framed_request() {
  BxsaEncoding enc;
  const SoapEnvelope req =
      services::make_data_request(workload::make_lead_dataset(kLeads));
  ByteWriter w;
  const std::size_t len_pos = begin_frame(w, BxsaEncoding::content_type());
  enc.serialize_into(req.document(), w);
  end_frame(w, len_pos);
  return w.take();
}

/// The handler is deterministic, so the response to the canonical request
/// has ONE wire size — the saturation driver counts response bytes
/// against it instead of parsing 10 000 frames in its single thread.
std::size_t framed_response_size() {
  BxsaEncoding enc;
  const SoapEnvelope resp = services::verification_handler(
      services::make_data_request(workload::make_lead_dataset(kLeads)));
  ByteWriter w;
  const std::size_t len_pos = begin_frame(w, BxsaEncoding::content_type());
  enc.serialize_into(resp.document(), w);
  end_frame(w, len_pos);
  return w.take().size();
}

/// The c10k driver: `conns` connections multiplexed by one epoll thread,
/// each performing `ops_per_conn` serial request/response exchanges.
LegResult drive_saturation(std::uint16_t port, std::size_t conns,
                           std::size_t ops_per_conn) {
  const std::vector<std::uint8_t> request = framed_request();
  const std::size_t response_size = framed_response_size();

  struct ConnState {
    TcpStream stream;
    std::size_t written = 0;  // request bytes sent this op
    std::size_t read = 0;     // response bytes received this op
    std::size_t ops_done = 0;
    bool writing = true;
    std::chrono::steady_clock::time_point t0;
  };

  // Dial serially in blocking mode: on loopback the handshake is
  // immediate, and serial dialing never overruns the listen backlog.
  std::vector<ConnState> states;
  states.reserve(conns);
  std::unordered_map<int, std::size_t> by_fd;
  Epoll epoll;
  for (std::size_t c = 0; c < conns; ++c) {
    ConnState s;
    s.stream = TcpStream::connect(port);
    s.stream.set_nonblocking(true);
    s.stream.set_no_delay(true);
    by_fd.emplace(s.stream.fd(), c);
    states.push_back(std::move(s));
  }

  LegResult r;
  r.latency.reserve(conns * ops_per_conn);
  std::size_t finished = 0;
  std::size_t failures = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto& s : states) {
    s.t0 = start;
    epoll.add(s.stream.fd(), EPOLLOUT);
  }

  std::vector<std::uint8_t> scratch(64 * 1024);
  epoll_event events[256];
  // Hang detector only; a healthy run finishes far sooner.
  const auto deadline = start + std::chrono::minutes(10);
  while (finished < conns && std::chrono::steady_clock::now() < deadline) {
    const int n = epoll.wait(events, 256, 1000);
    for (int i = 0; i < n; ++i) {
      const auto it = by_fd.find(events[i].data.fd);
      if (it == by_fd.end()) continue;
      ConnState& s = states[it->second];
      try {
        if (s.writing) {
          while (s.written < request.size()) {
            const auto w = s.stream.try_write_some(
                std::span(request.data() + s.written,
                          request.size() - s.written));
            if (!w) break;
            s.written += *w;
          }
          if (s.written == request.size()) {
            s.writing = false;
            epoll.mod(s.stream.fd(), EPOLLIN);
          }
          continue;
        }
        for (;;) {
          const auto got = s.stream.try_read_some(
              scratch.data(),
              std::min(scratch.size(), response_size - s.read));
          if (!got) break;
          if (*got == 0) throw TransportError("server closed mid-response");
          s.read += *got;
          if (s.read < response_size) continue;
          r.latency.record(std::chrono::steady_clock::now() - s.t0);
          ++s.ops_done;
          s.read = 0;
          s.written = 0;
          if (s.ops_done == ops_per_conn) {
            epoll.del(s.stream.fd());
            by_fd.erase(s.stream.fd());
            s.stream.close();
            ++finished;
          } else {
            s.writing = true;
            s.t0 = std::chrono::steady_clock::now();
            epoll.mod(s.stream.fd(), EPOLLOUT);
          }
          break;
        }
      } catch (const TransportError&) {
        ++failures;
        epoll.del(s.stream.fd());
        by_fd.erase(s.stream.fd());
        s.stream.close();
        ++finished;
      }
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  r.seconds = std::chrono::duration<double>(elapsed).count();
  r.ops = r.latency.count();
  if (failures != 0) {
    std::fprintf(stderr, "saturation: %zu failed connections\n", failures);
  }
  if (finished < conns) {
    std::fprintf(stderr, "saturation: %zu connections never finished\n",
                 conns - finished);
  }
  return r;
}

ServerConfig make_config(obs::Registry& registry, std::string prefix) {
  ServerConfig cfg;
  cfg.encoding = AnyEncoding::from(BxsaEncoding{});
  cfg.handler = services::verification_handler;
  cfg.registry = &registry;
  cfg.metrics_prefix = std::move(prefix);
  // All clients of a leg dial at once; a default backlog drops SYNs at 256
  // concurrent connects and the 1s retransmit poisons the latency tail.
  cfg.backlog = 1024;
  return cfg;
}

void publish_leg(obs::Registry& registry, const std::string& prefix,
                 const LegResult& r) {
  r.latency.publish(registry, prefix);
  registry.gauge(prefix + ".throughput.ops_per_sec")
      .set(static_cast<std::int64_t>(
          static_cast<double>(r.ops) / r.seconds));
  registry.gauge(prefix + ".server.threads")
      .set(static_cast<std::int64_t>(r.server_threads));
  if (r.pool_hit_rate >= 0.0) {
    registry.gauge(prefix + ".pool.hit_rate.pct")
        .set(static_cast<std::int64_t>(r.pool_hit_rate * 100.0));
  }
}

void print_row(const bench::Table& table, const std::string& server,
               std::size_t clients, const LegResult& r) {
  table.cell(server);
  table.cell(clients);
  table.cell(static_cast<std::size_t>(r.server_threads));
  table.cell(static_cast<double>(r.ops) / r.seconds, "%.0f");
  table.cell(static_cast<double>(r.latency.percentile_ns(50)) / 1e6, "%.3f");
  table.cell(static_cast<double>(r.latency.percentile_ns(95)) / 1e6, "%.3f");
  table.cell(static_cast<double>(r.latency.percentile_ns(99)) / 1e6, "%.3f");
  table.cell(static_cast<double>(r.latency.max_ns()) / 1e6, "%.1f");
  table.end_row();
}

/// Largest saturation rung the process fd limit allows: one client fd plus
/// one server fd per connection, with headroom for everything else.
std::size_t fd_clamped(std::size_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return want;
  const auto ceiling = static_cast<std::size_t>(rl.rlim_cur);
  if (ceiling <= 200) return 0;
  return std::min(want, (ceiling - 200) / 2);
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  std::size_t reactors_override = 0;  // 0 = per-leg default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--short") == 0) short_mode = true;
    if (std::strcmp(argv[i], "--reactors") == 0 && i + 1 < argc) {
      reactors_override =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    }
  }
  const std::vector<std::size_t> ladder =
      short_mode ? std::vector<std::size_t>{1, 8, 32}
                 : std::vector<std::size_t>{1, 8, 64, 256};
  const std::size_t total_ops = short_mode ? 256 : 2048;
  const std::size_t nproc =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  obs::Registry registry;
  bench::Table table({"server", "clients", "threads", "ops/s", "p50 ms",
                      "p95 ms", "p99 ms", "max ms"},
                     14);
  std::printf("bench_concurrency: %zu ops per leg, %zu leads per request%s\n",
              total_ops, kLeads, short_mode ? " (short mode)" : "");
  if (reactors_override != 0) {
    std::printf("event-server reactor_threads pinned to %zu\n",
                reactors_override);
  }
  table.print_header();

  // Every leg runs through SoapServer::create; the dispatch mode is a
  // loop variable, not a code path.
  struct Leg {
    const char* name;
    const char* prefix;
    std::size_t workers;  // 0 = run inline on the reactors
  };
  const Leg legs[] = {
      // threads == reactors, bounded by cores
      {"event", "event", 0},
      // reactors + one worker per core
      {"event+workers", "event_workers", nproc},
  };
  for (const std::size_t clients : ladder) {
    for (const Leg& leg : legs) {
      const std::string prefix =
          std::string(leg.prefix) + ".c" + std::to_string(clients);
      ServerConfig cfg = make_config(registry, prefix);
      cfg.reactor_threads = reactors_override;
      cfg.worker_threads = leg.workers;
      auto server =
          SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
      LegResult r = drive_clients(server->port(), clients, total_ops);
      r.server_threads = server->serving_threads();
      server->stop();
      publish_leg(registry, prefix, r);
      print_row(table, leg.name, clients, r);
    }
  }

  if (!short_mode) {
    // ---- c10k saturation ladder ------------------------------------------
    registry.gauge("c10k.meta.nproc").set(static_cast<std::int64_t>(nproc));
    // On a single-core host the r1 and r<nproc> legs are the same
    // topology; the duplicate is skipped and this flag says why the
    // snapshot cannot show a sharding speedup.
    registry.gauge("c10k.meta.single_core").set(nproc == 1 ? 1 : 0);

    std::vector<std::size_t> shard_legs = {1};
    if (reactors_override != 0 && reactors_override != 1) {
      shard_legs.push_back(reactors_override);
    } else if (nproc > 1) {
      shard_legs.push_back(nproc);
    }

    for (const std::size_t conns :
         {std::size_t{1024}, std::size_t{4096}, fd_clamped(10000)}) {
      if (conns == 0) continue;
      // Bound the rung's wall clock: more connections, fewer ops each —
      // the point is saturation breadth, not op count.
      const std::size_t ops_per_conn =
          conns <= 1024 ? 20 : (conns <= 4096 ? 8 : 4);
      for (const std::size_t shards : shard_legs) {
        const std::string prefix = "event.c10k.c" + std::to_string(conns) +
                                   ".r" + std::to_string(shards);
        ServerConfig cfg = make_config(registry, prefix);
        cfg.reactor_threads = shards;
        cfg.backlog = 4096;
        // Steady-state acquire at this concurrency must stay a pool hit:
        // with every connection in flight at once the peak outstanding
        // buffer demand tracks the connection count, so size the shared
        // tier to match it (capped so the 10k rung does not pin ~10k
        // buffers per class after the burst drains).
        cfg.buffer_pool.max_buffers_per_class =
            std::clamp<std::size_t>(conns, 64, 4096);
        auto server =
            SoapServer::create(ConcurrencyModel::kEventLoop, std::move(cfg));
        LegResult r = drive_saturation(server->port(), conns, ops_per_conn);
        r.server_threads = server->serving_threads();
        server->stop();
        const double hits =
            static_cast<double>(registry.counter(prefix + ".pool.hit").value());
        const double misses = static_cast<double>(
            registry.counter(prefix + ".pool.miss").value());
        if (hits + misses > 0) r.pool_hit_rate = hits / (hits + misses);
        publish_leg(registry, prefix, r);
        print_row(table, "c10k r" + std::to_string(shards), conns, r);
        std::printf("  c%zu r%zu: pool hit rate %.1f%%\n", conns, shards,
                    r.pool_hit_rate * 100.0);
      }
    }
  }

  const std::string path =
      bench::dump_registry_snapshot(registry, "concurrency");
  if (!path.empty()) std::printf("snapshot: %s\n", path.c_str());
  return 0;
}
