// Engine-wide observability primitives (the measurement substrate the
// paper's whole argument rests on: where time goes in serialize / encode /
// transmit / decode across the Encoding x Binding stacks, §6).
//
// Everything on the record path is a relaxed atomic — no locks, no
// allocation, safe to hammer from every worker thread. The Registry owns
// the metrics (node-based maps, so references handed out stay stable for
// its lifetime) and serializes a consistent-enough snapshot to structured
// JSON for the bench harness to dump alongside its results.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace bxsoap::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Add the nanoseconds since `t0` to `ns`, when a counter is attached.
inline void add_elapsed_ns(Counter* ns,
                           std::chrono::steady_clock::time_point t0) noexcept {
  if (ns == nullptr) return;
  ns->add(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count()));
}

/// Instantaneous level (active connections, queue depth).
class Gauge {
 public:
  void add(std::int64_t n = 1) noexcept {
    v_.fetch_add(n, std::memory_order_relaxed);
  }
  void sub(std::int64_t n = 1) noexcept {
    v_.fetch_sub(n, std::memory_order_relaxed);
  }
  void set(std::int64_t n) noexcept {
    v_.store(n, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Log2-bucketed histogram for latencies (ns) and sizes (bytes): bucket i
/// counts values v with bit_width(v) == i, i.e. [2^(i-1), 2^i). 64 buckets
/// cover the full uint64 range; recording is two relaxed adds and a
/// relaxed max.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit_width in [0, 64]

  void record(std::uint64_t v) noexcept;

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  std::uint64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Upper-bound estimate of the q-quantile (0 < q <= 1): the upper edge
  /// of the bucket holding the q*count-th recorded value.
  std::uint64_t quantile_upper_bound(double q) const noexcept;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};
};

/// A level with a high-water mark: tracks the current value like a Gauge
/// and additionally remembers the maximum it ever reached (CAS max on a
/// relaxed atomic). This is what bounded-memory claims are verified
/// against — e.g. the streaming path's peak pooled-buffer residency.
class Waterline {
 public:
  void add(std::uint64_t n) noexcept {
    const std::uint64_t now =
        v_.fetch_add(n, std::memory_order_relaxed) + n;
    std::uint64_t seen = peak_.load(std::memory_order_relaxed);
    while (seen < now &&
           !peak_.compare_exchange_weak(seen, now,
                                        std::memory_order_relaxed)) {
    }
  }
  void sub(std::uint64_t n) noexcept {
    v_.fetch_sub(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  std::uint64_t peak() const noexcept {
    return peak_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> v_{0};
  std::atomic<std::uint64_t> peak_{0};
};

/// Byte/syscall tallies for one transport endpoint. A TcpStream records
/// into one of these when attached (see TcpStream::set_io_stats).
struct IoStats {
  Counter bytes_in;
  Counter bytes_out;
  Counter read_calls;   // one per ::recv that hit the wire
  Counter write_calls;  // one per ::send
};

/// BXSA codec tallies. `frames_by_type` is indexed by the wire frame-type
/// code (bxsa::FrameType, 1..7); slot 0 is unused.
struct CodecStats {
  static constexpr std::size_t kFrameTypeSlots = 8;
  Counter frames_by_type[kFrameTypeSlots];
  Counter symtab_hits;        // QName resolved against an existing decl
  Counter symtab_auto_decls;  // QName forced a fresh auto-declaration
};

/// Named metric store. Lookup registers on first use and returns a stable
/// reference; the hot path holds the reference and never touches the map
/// again. Thread-safe throughout.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Waterline& waterline(const std::string& name);
  IoStats& io(const std::string& name);
  CodecStats& codec(const std::string& name);

  /// Structured JSON snapshot of every registered metric:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  ///    mean,max,p50,p95,p99}},"waterlines":{name:{value,peak}},
  ///    "io":{...},"codec":{...}}
  /// Values are read with relaxed loads — a snapshot taken under load is
  /// approximate, which is all a metrics dump needs to be.
  std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Waterline> waterlines_;
  std::map<std::string, IoStats> io_;
  std::map<std::string, CodecStats> codec_;
};

}  // namespace bxsoap::obs
