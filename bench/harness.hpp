// Shared helpers for the figure/table reproduction harnesses.
//
// The figure benches report
//     response time = measured CPU time + netsim-modeled wire/disk time
// (see src/netsim/netsim.hpp for why). measure_seconds() produces stable
// per-operation CPU times by repeating the operation until enough wall
// clock has accumulated.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace bxsoap::bench {

/// Exact latency percentiles for bench reporting. The obs::Histogram's
/// log2 buckets are the right trade-off for always-on production metrics,
/// but a bench can afford to keep every sample and report true p50/p95/p99
/// instead of bucket upper bounds. Record per worker thread, merge(), then
/// publish() into a Registry so the numbers land in the BENCH_*.json
/// snapshot alongside everything else.
class LatencySamples {
 public:
  void reserve(std::size_t n) { samples_.reserve(n); }
  void record_ns(std::uint64_t ns) { samples_.push_back(ns); }
  void record(std::chrono::nanoseconds d) {
    record_ns(static_cast<std::uint64_t>(d.count()));
  }

  void merge(const LatencySamples& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }

  std::size_t count() const noexcept { return samples_.size(); }

  /// Nearest-rank percentile (exact over the recorded samples); p in
  /// (0, 100]. Returns 0 with no samples.
  std::uint64_t percentile_ns(double p) const {
    if (samples_.empty()) return 0;
    std::vector<std::uint64_t> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double rank =
        std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::max(1.0, std::min(rank, static_cast<double>(sorted.size()))));
    return sorted[idx - 1];
  }

  double mean_ns() const {
    if (samples_.empty()) return 0.0;
    double sum = 0.0;
    for (const std::uint64_t s : samples_) sum += static_cast<double>(s);
    return sum / static_cast<double>(samples_.size());
  }

  std::uint64_t min_ns() const {
    if (samples_.empty()) return 0;
    return *std::min_element(samples_.begin(), samples_.end());
  }

  std::uint64_t max_ns() const {
    std::uint64_t m = 0;
    for (const std::uint64_t s : samples_) m = std::max(m, s);
    return m;
  }

  /// Record p50/p95/p99 (plus count and mean) as gauges under
  /// "<prefix>.latency.*" so the registry's JSON snapshot carries them.
  void publish(obs::Registry& registry, const std::string& prefix) const {
    registry.gauge(prefix + ".latency.count")
        .set(static_cast<std::int64_t>(count()));
    registry.gauge(prefix + ".latency.mean.ns")
        .set(static_cast<std::int64_t>(mean_ns()));
    registry.gauge(prefix + ".latency.p50.ns")
        .set(static_cast<std::int64_t>(percentile_ns(50)));
    registry.gauge(prefix + ".latency.p95.ns")
        .set(static_cast<std::int64_t>(percentile_ns(95)));
    registry.gauge(prefix + ".latency.p99.ns")
        .set(static_cast<std::int64_t>(percentile_ns(99)));
    registry.gauge(prefix + ".latency.max.ns")
        .set(static_cast<std::int64_t>(max_ns()));
  }

 private:
  std::vector<std::uint64_t> samples_;
};

/// Write a metrics-registry snapshot next to the bench's stdout table:
/// BENCH_<name>.json in the working directory. This is how the ablation
/// benches persist their per-stage breakdown (stage histograms, io and
/// codec tallies) in a form scripts can diff across runs. Returns the
/// file name, or "" if the file could not be written.
inline std::string dump_registry_snapshot(const obs::Registry& registry,
                                          const std::string& name) {
  const std::string path = "BENCH_" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return "";
  const std::string json = registry.to_json();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return path;
}

/// Seconds per invocation of `op`, repeated until at least `min_time`
/// seconds total (minimum one run, so very slow ops are timed once).
template <typename Op>
double measure_seconds(Op&& op, double min_time = 0.05) {
  using Clock = std::chrono::steady_clock;
  std::size_t iters = 0;
  const auto start = Clock::now();
  double elapsed = 0.0;
  do {
    op();
    ++iters;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_time);
  return elapsed / static_cast<double>(iters);
}

/// Fixed-width table printer for the paper-style outputs.
class Table {
 public:
  explicit Table(std::vector<std::string> columns, int width = 14)
      : columns_(std::move(columns)), width_(width) {}

  void print_header() const {
    for (const auto& c : columns_) {
      std::printf("%*s", width_, c.c_str());
    }
    std::printf("\n");
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      for (int j = 0; j < width_; ++j) std::printf("-");
    }
    std::printf("\n");
  }

  void cell(const std::string& s) const { std::printf("%*s", width_, s.c_str()); }
  void cell(double v, const char* fmt = "%.3g") const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    std::printf("%*s", width_, buf);
  }
  void cell(std::size_t v) const { std::printf("%*zu", width_, v); }
  void end_row() const { std::printf("\n"); }

 private:
  std::vector<std::string> columns_;
  int width_;
};

}  // namespace bxsoap::bench
