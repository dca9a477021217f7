// perfbench: the repo benchmark's binary (perfbench/run.py builds and
// runs it).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--corrupt <n>] [--spans-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation: the
// server's registry is null and clients use NullObserver. --trace 1 runs
// the same workload twice, untimed then traced (registry attached, span
// observer on the clients, spans from the bench's own handlers), and
// prints the per-layer metrics, a layer table and the tracing overhead.
// --corrupt n makes the server corrupt its n-th response (the self-test's
// proof that a wrong reply counts as a failure).
//
// The last line of stdout is the result:
//   {"correct":...,"attempted":...,"failed":...,"metrics":{name:{value,unit}}}
// The exit code is 0 only when every exchange was correct.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bxsoap::obs::Registry;
using bxsoap::obs::Stage;

constexpr double kMiB = 1024.0 * 1024.0;
/// Set-ups per run (setup_s is their median): half before the measured
/// window, half after it, so one passing state of the host does not set
/// the figure.
constexpr int kSetups = 24;
/// How often the resident set is sampled in the measured window.
constexpr auto kRssSample = std::chrono::milliseconds(20);
/// A warm-up that has not reached its exchange count by then ends anyway.
constexpr double kWarmupMaxSeconds = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::uint64_t corrupt = 0;
  std::string spans_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--corrupt <n>] "
               "[--spans-dir <dir>]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else if (flag == "--corrupt") {
      a.corrupt = std::strtoull(v, nullptr, 10);
    } else if (flag == "--spans-dir") {
      a.spans_dir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Resident set size now, from /proc/self/statm.
double rss_bytes() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE));
}

/// The machine's CPU time so far as (all, stolen) jiffies, from the "cpu"
/// line of /proc/stat: steal is time the hypervisor ran something else
/// while this VM's vCPUs wanted to run. Zeros when unavailable.
std::pair<double, double> cpu_jiffies() {
  double all = 0;
  double steal = 0;
  if (std::FILE* f = std::fopen("/proc/stat", "r")) {
    char cpu[8];
    unsigned long long v[8] = {};
    if (std::fscanf(f, "%7s %llu %llu %llu %llu %llu %llu %llu %llu", cpu,
                    &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                    &v[7]) == 9) {
      for (const unsigned long long x : v) all += static_cast<double>(x);
      steal = static_cast<double>(v[7]);
    }
    std::fclose(f);
  }
  return {all, steal};
}

/// Nearest-rank percentile, p in (0, 100].
double percentile(std::vector<std::int64_t> v, double p) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Exchanges attempted and failed over the whole run (set-up, warm-up and
/// measurement alike).
struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
};

bool run_exchange(Client& c, std::uint64_t i, Sample& s, Tally& tally) {
  tally.attempted.fetch_add(1, std::memory_order_relaxed);
  try {
    if (c.exchange(i, s)) return true;
    std::fprintf(stderr, "perfbench: exchange %" PRIu64 " got a wrong reply\n",
                 i);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: exchange %" PRIu64 " failed: %s\n", i,
                 e.what());
    c.reset();
  }
  tally.failed.fetch_add(1, std::memory_order_relaxed);
  return false;
}

/// A running server and its connected clients. Clients go first, then the
/// server stops; the hooks outlive both.
struct Rig {
  ServerHooks hooks;
  std::unique_ptr<bxsoap::transport::SoapServer> server;
  std::vector<std::unique_ptr<Client>> clients;
  std::vector<std::uint64_t> next;  // each client's next exchange index

  ~Rig() {
    clients.clear();
    if (server) server->stop();
  }
};

/// Inputs generated, server started, every client connected (handshake
/// included) and through its first exchange.
std::unique_ptr<Rig> set_up(Workload& wl, std::uint64_t seed,
                            Registry* registry, SharedSpanLog* server_spans,
                            std::uint64_t corrupt, Tally& tally) {
  auto rig = std::make_unique<Rig>();
  wl.generate(seed);
  rig->hooks.spans = server_spans;
  rig->hooks.corrupt_exchange = corrupt;
  rig->server = wl.start_server(registry, rig->hooks);
  for (std::size_t c = 0; c < wl.info().clients; ++c) {
    rig->clients.push_back(wl.connect(rig->server->port(), c, registry));
    Sample s;
    run_exchange(*rig->clients.back(), 0, s, tally);
    rig->next.push_back(1);
  }
  return rig;
}

/// Times `n` set-ups, each torn down before the next.
void time_setups(Workload& wl, std::uint64_t seed, int n, Tally& tally,
                 std::vector<double>& out) {
  for (int i = 0; i < n; ++i) {
    const auto t0 = Clock::now();
    auto rig = set_up(wl, seed, nullptr, nullptr, 0, tally);
    out.push_back(since(t0));
  }
}

/// When a phase ends and what it records.
struct PhaseSpec {
  double seconds = 0;
  /// When nonzero, the phase also ends once its clients have completed
  /// this many exchanges between them.
  std::uint64_t exchanges = 0;
  /// The resident set is sampled until this many exchanges have completed
  /// (0: not sampled), so its peak does not depend on the exchange rate.
  std::uint64_t rss_exchanges = 0;
  /// Record buffer capacity per client, touched before the phase starts so
  /// that recording allocates nothing.
  std::size_t expected_per_client = 0;
};

/// One phase of closed-loop exchanges: every client runs exchanges back to
/// back, each waiting for its reply. Figures are over the whole phase.
struct Phase {
  double seconds = 0;
  std::vector<Sample> records;  // correct exchanges only
  std::uint64_t client_bytes = 0;     // socket bytes, both directions
  std::uint64_t client_syscalls = 0;  // read + write calls
  double cpu_s = 0;  // process CPU time (user + sys)
  double steal = 0;  // share of the machine's CPU stolen meanwhile
  /// Bytes of the pre-touched record buffers (resident, but the bench's).
  std::size_t record_bytes = 0;
  /// Highest resident set size sampled (see PhaseSpec::rss_exchanges).
  double peak_rss_bytes = 0;

  std::uint64_t ops() const { return records.size(); }
  double ops_per_s() const { return static_cast<double>(ops()) / seconds; }
  std::vector<std::int64_t> latencies() const {
    std::vector<std::int64_t> v;
    v.reserve(records.size());
    for (const Sample& r : records) v.push_back(r.latency_ns);
    return v;
  }
};

Phase run_phase(Rig& rig, const PhaseSpec& spec, Tally& tally) {
  const std::size_t n = rig.clients.size();
  struct PerClient {
    std::vector<Sample> records;
    std::uint64_t bytes = 0;
    std::uint64_t syscalls = 0;
    Clock::time_point end;
  };
  std::vector<PerClient> per(n);
  Phase p;
  for (PerClient& pc : per) {
    pc.records.resize(spec.expected_per_client);
    pc.records.clear();
    p.record_bytes += pc.records.capacity() * sizeof(Sample);
  }
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::size_t> running{n};
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  threads.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    threads.emplace_back([&, c] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Client& client = *rig.clients[c];
      const auto& io = client.io();
      const auto tally_io = [&io] {
        return std::pair(io.bytes_in.value() + io.bytes_out.value(),
                         io.read_calls.value() + io.write_calls.value());
      };
      const auto [b0, s0] = tally_io();
      while (Clock::now() < deadline &&
             (spec.exchanges == 0 ||
              done.load(std::memory_order_relaxed) < spec.exchanges)) {
        Sample s;
        if (run_exchange(client, rig.next[c]++, s, tally)) {
          per[c].records.push_back(s);
          done.fetch_add(1, std::memory_order_relaxed);
        }
      }
      const auto [b1, s1] = tally_io();
      per[c].bytes = b1 - b0;
      per[c].syscalls = s1 - s0;
      per[c].end = Clock::now();
      running.fetch_sub(1, std::memory_order_release);
    });
  }
  const double cpu0 = cpu_seconds();
  const auto jiffies0 = cpu_jiffies();
  const Clock::time_point start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(spec.seconds));
  go.store(true, std::memory_order_release);
  while (running.load(std::memory_order_acquire) > 0) {
    if (done.load(std::memory_order_relaxed) < spec.rss_exchanges) {
      p.peak_rss_bytes = std::max(p.peak_rss_bytes, rss_bytes());
    }
    std::this_thread::sleep_for(kRssSample);
  }
  for (auto& t : threads) t.join();
  p.cpu_s = cpu_seconds() - cpu0;
  const auto jiffies1 = cpu_jiffies();
  const double all = jiffies1.first - jiffies0.first;
  p.steal = all > 0 ? (jiffies1.second - jiffies0.second) / all : 0;
  Clock::time_point end = start;
  for (PerClient& pc : per) {
    end = std::max(end, pc.end);
    p.client_bytes += pc.bytes;
    p.client_syscalls += pc.syscalls;
    p.records.insert(p.records.end(), pc.records.begin(), pc.records.end());
  }
  p.seconds = std::chrono::duration<double>(end - start).count();
  return p;
}

/// Warm-up: the workload's fixed number of exchanges, so what it leaves
/// resident does not depend on the exchange rate.
Phase warm_up(Rig& rig, const WorkloadInfo& info, Tally& tally) {
  return run_phase(rig, {kWarmupMaxSeconds, info.warmup_exchanges}, tally);
}

/// Output: metrics in declaration order with their units.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, const Tally& tally,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct ? "true" : "false", tally.attempted.load(),
              tally.failed.load());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

// ---- traced run -----------------------------------------------------------

/// The registry and client-trace values the per-layer metrics are deltas
/// of, read before and after the traced phase.
struct Snapshot {
  std::map<std::string, double> v;
  std::array<std::uint64_t, bxsoap::obs::kStageCount> client_ns{};

  double operator[](const std::string& k) const { return v.at(k); }
};

Snapshot snapshot(Registry& reg, Rig& rig) {
  Snapshot s;
  for (const char* stage : {"frame_read", "deserialize", "handler",
                            "serialize", "frame_write"}) {
    s.v[std::string("stage.") + stage] = static_cast<double>(
        reg.histogram(std::string("event.stage.") + stage + ".ns").sum());
  }
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(reg.counter(name).value());
  };
  s.v["wakeups"] = counter("event.reactor.wakeups");
  s.v["loop_ns"] =
      static_cast<double>(reg.histogram("event.reactor.loop.ns").sum());
  const auto& io = reg.io("event.io");
  s.v["server_syscalls"] =
      static_cast<double>(io.read_calls.value() + io.write_calls.value());
  s.v["server_bytes"] =
      static_cast<double>(io.bytes_in.value() + io.bytes_out.value());
  s.v["pool_hit"] = counter("event.pool.hit");
  s.v["pool_miss"] = counter("event.pool.miss");
  s.v["dict_saved"] =
      counter("event.dict.bytes_saved") + counter("client.dict.bytes_saved");
  for (const auto& c : rig.clients) {
    if (ClientTrace* t = c->trace()) {
      for (std::size_t i = 0; i < s.client_ns.size(); ++i) {
        s.client_ns[i] += t->stage_ns[i];
      }
    }
  }
  return s;
}

std::vector<Metric> traced_run(Workload& wl, const Args& args,
                               const Phase& untimed, Tally& tally) {
  const WorkloadInfo& info = wl.info();
  Registry reg;
  SharedSpanLog server_spans("server", 1u << 16);
  auto rig = set_up(wl, args.seed, &reg, &server_spans, 0, tally);
  warm_up(*rig, info, tally);
  const Snapshot before = snapshot(reg, *rig);
  const Phase p = run_phase(*rig, {args.seconds / 2}, tally);
  const Snapshot after = snapshot(reg, *rig);
  const auto ops = static_cast<double>(std::max<std::uint64_t>(p.ops(), 1));
  const auto delta = [&](const char* k) { return after[k] - before[k]; };
  const auto per_op_us = [&](double ns) { return ns / ops / 1e3; };
  const auto client_us = [&](Stage s) {
    const auto i = static_cast<std::size_t>(s);
    return per_op_us(static_cast<double>(after.client_ns[i] -
                                         before.client_ns[i]));
  };

  const double srv_deser = per_op_us(delta("stage.deserialize"));
  const double srv_handler = per_op_us(delta("stage.handler"));
  const double srv_ser = per_op_us(delta("stage.serialize"));
  const double frame_read = per_op_us(delta("stage.frame_read"));
  const double frame_write = per_op_us(delta("stage.frame_write"));
  const double p50_us = percentile(p.latencies(), 50) / 1e3;

  // The budget: e2e p50 minus every stage's self time, with the client's
  // receive span counted as the wait the server stages and the residue sit
  // in.
  const double residue_us =
      p50_us - (client_us(Stage::kSerialize) + client_us(Stage::kSend) +
                client_us(Stage::kDeserialize) + client_us(Stage::kSecurity) +
                frame_read + srv_deser + srv_handler + srv_ser + frame_write);

  const LayerTimings lt = time_layers(wl.layer_inputs(), 0.1);
  const double pool_acquires = delta("pool_hit") + delta("pool_miss");

  std::vector<Metric> m{
      {"soap.client.serialize_us", client_us(Stage::kSerialize), "us"},
      {"soap.client.send_us", client_us(Stage::kSend), "us"},
      {"soap.client.receive_us", client_us(Stage::kReceive), "us"},
      {"soap.client.deserialize_us", client_us(Stage::kDeserialize), "us"},
      {"server.frame_read_us", frame_read, "us"},
      {"server.deserialize_us", srv_deser, "us"},
      {"server.handler_us", srv_handler, "us"},
      {"server.serialize_us", srv_ser, "us"},
      {"server.frame_write_us", frame_write, "us"},
      {"transport.reactor.wakeups_per_op", delta("wakeups") / ops, "count"},
      {"transport.reactor.loop_us_per_op", per_op_us(delta("loop_ns")), "us"},
      {"transport.queue.peak_depth",
       static_cast<double>(reg.waterline("event.queue.waterline").peak()),
       "count"},
      {"transport.io.syscalls_per_op",
       (static_cast<double>(p.client_syscalls) + delta("server_syscalls")) /
           ops,
       "count"},
      {"transport.io.bytes_per_op", delta("server_bytes") / ops, "B"},
      {"transport.frame.decode_us_per_op", lt.frame_decode_us, "us"},
      {"transport.frame.blocking_read_us_per_op", lt.frame_blocking_read_us,
       "us"},
      {"bxsa.dict.bytes_saved_per_op", delta("dict_saved") / ops, "B"},
      {"bxsa.dict.encode_us", lt.dict_encode_us, "us"},
      {"bxsa.dict.decode_us", lt.dict_decode_us, "us"},
      {"bxsa.encode_mib_s", lt.bxsa_encode_mib_s, "MiB/s"},
      {"bxsa.decode_mib_s", lt.bxsa_decode_mib_s, "MiB/s"},
      {"xml.encode_mib_s", lt.xml_encode_mib_s, "MiB/s"},
      {"xml.decode_mib_s", lt.xml_decode_mib_s, "MiB/s"},
      {"xml.bytes_per_native_byte", lt.xml_bytes_per_native_byte, "ratio"},
      {"common.pool.hit_ratio",
       pool_acquires > 0 ? delta("pool_hit") / pool_acquires : 0, "ratio"},
      {"common.hmac.mib_s", lt.hmac_mib_s, "MiB/s"},
      {"traced.latency_p50_us", p50_us, "us"},
      {"unattributed_us", residue_us, "us"},
      {"unattributed_share", residue_us / p50_us, "ratio"},
      {"tracing_overhead_pct",
       100.0 * (untimed.ops_per_s() - p.ops_per_s()) / untimed.ops_per_s(),
       "%"},
  };

  // The layer table: each stage's self time per exchange and its share of
  // the traced p50.
  std::printf("layer table (%s, traced p50 %.1f us, %" PRIu64
              " exchanges)\n",
              info.name.c_str(), p50_us, p.ops());
  std::printf("  %-28s %12s %8s\n", "stage", "self us/op", "share");
  const auto row = [&](const char* name, double us) {
    std::printf("  %-28s %12.2f %7.1f%%\n", name, us, 100.0 * us / p50_us);
  };
  row("soap.client.serialize", client_us(Stage::kSerialize));
  row("soap.client.send", client_us(Stage::kSend));
  row("soap.client.deserialize", client_us(Stage::kDeserialize));
  row("server.frame_read", frame_read);
  row("server.deserialize", srv_deser);
  row("server.handler", srv_handler);
  row("server.serialize", srv_ser);
  row("server.frame_write", frame_write);
  row("unattributed (residue)", residue_us);
  std::printf("  tracing overhead: %.2f%% of untimed ops/s (%.1f traced vs "
              "%.1f untimed)\n",
              100.0 * (untimed.ops_per_s() - p.ops_per_s()) /
                  untimed.ops_per_s(),
              p.ops_per_s(), untimed.ops_per_s());

  std::vector<const SpanLog*> logs;
  for (const auto& c : rig->clients) logs.push_back(&c->trace()->log);
  logs.push_back(&server_spans.log());
  const std::string path = args.spans_dir + "/spans-" + info.name + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (write_spans(path, logs)) {
    std::printf("spans: %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return m;
}

// ---- main -----------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

int run(const Args& args) {
  const std::size_t nproc =
      std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<Workload> wl = make_workload(args.workload, nproc);
  if (wl == nullptr) usage(("unknown workload " + args.workload).c_str());
  const WorkloadInfo& info = wl->info();
  Tally tally;

  // Set-up is timed kSetups times, half before the measured window (the
  // last of those rigs is measured) and half after it; setup_s is the
  // median of all of them.
  std::vector<double> setup_s;
  time_setups(*wl, args.seed, kSetups / 2 - 1, tally, setup_s);
  const auto t0 = Clock::now();
  std::unique_ptr<Rig> rig =
      set_up(*wl, args.seed, nullptr, nullptr, args.corrupt, tally);
  setup_s.push_back(since(t0));
  const std::size_t serving_threads = rig->server->serving_threads();
  const Phase warm = warm_up(*rig, info, tally);
  const double measured_s = args.trace ? args.seconds / 2 : args.seconds;
  // Room for twice the warm-up rate, so recording never reallocates.
  const auto expected_per_client = static_cast<std::size_t>(
      2.0 * warm.ops_per_s() * measured_s /
          static_cast<double>(info.clients) +
      64);
  const Phase p = run_phase(
      *rig, {measured_s, 0, info.rss_exchanges, expected_per_client}, tally);
  const double peak_rss =
      (p.peak_rss_bytes - static_cast<double>(p.record_bytes)) / kMiB;
  rig.reset();
  const double setup_before_s = median(setup_s);
  time_setups(*wl, args.seed, kSetups - kSetups / 2, tally, setup_s);
  std::vector<double> setup_after(setup_s.begin() + kSetups / 2,
                                  setup_s.end());

  std::printf(
      "meta: {\"workload\": \"%s\", \"framing\": \"%s\", \"loop\": "
      "\"closed\", \"clients\": %zu, \"native_bytes_per_op\": %zu, "
      "\"nproc\": %zu, \"serving_threads\": %zu, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"seed\": %" PRIu64
      ", \"run_seconds\": %g, \"warmup_exchanges\": %" PRIu64
      ", \"rss_exchanges\": %" PRIu64 ", \"setups\": %d, "
      "\"steal_pct\": %.2f, \"samples\": %" PRIu64 "}\n",
      info.name.c_str(), json_escape(info.framing).c_str(), info.clients,
      info.native_bytes_per_op, nproc, serving_threads,
      json_escape("gcc " __VERSION__).c_str(), PERFBENCH_BUILD_TYPE, args.seed,
      args.seconds, info.warmup_exchanges, info.rss_exchanges, kSetups,
      100 * p.steal, p.ops());

  // Every figure is over the whole measured window.
  const auto ops = static_cast<double>(std::max<std::uint64_t>(p.ops(), 1));
  const std::vector<std::int64_t> latencies = p.latencies();
  const double attempted = static_cast<double>(tally.attempted.load());
  std::vector<Metric> e2e{
      {"setup_s", median(setup_s), "s"},
      {"ops_per_s", p.ops_per_s(), "1/s"},
      {"latency_p50_us", percentile(latencies, 50) / 1e3, "us"},
      {"goodput_mib_s",
       p.ops_per_s() * static_cast<double>(info.native_bytes_per_op) / kMiB,
       "MiB/s"},
      {"wire_bytes_per_op", static_cast<double>(p.client_bytes) / ops, "B"},
      {"cpu_us_per_op", p.cpu_s / ops * 1e6, "us"},
      {"peak_rss_mib", peak_rss, "MiB"},
  };
  std::vector<Metric> shown = e2e;
  shown.push_back({"error_rate",
                   static_cast<double>(tally.failed.load()) / attempted,
                   "ratio"});
  char heading[160];
  std::snprintf(heading, sizeof(heading),
                "end-to-end (%s, %" PRIu64 " exchanges)", info.name.c_str(),
                p.ops());
  print_metrics(heading, shown);
  std::printf("  latency ladder (us):");
  for (const double q : {50.0, 90.0, 95.0, 98.0, 99.0, 99.9, 99.99}) {
    std::printf(" p%g=%.1f", q, percentile(latencies, q) / 1e3);
  }
  std::printf("\n  setup_s median before / after the window: %.6g / %.6g\n",
              setup_before_s, median(setup_after));

  std::vector<Metric> result = e2e;
  if (args.trace) {
    result = traced_run(*wl, args, p, tally);
    print_metrics("per-layer", result);
  }
  const bool correct = tally.failed.load() == 0;
  print_result(correct, tally, result);
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
