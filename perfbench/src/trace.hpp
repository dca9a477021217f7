// Spans recorded by the benchmark around its calls into each layer.
//
// A span has a name, a start and end on one steady clock, the span that
// caused it, and the request it belongs to. Spans stay in memory (one log
// per recording thread, capped so a long traced run cannot grow without
// bound) and are written out once, when the run ends.
//
// SpanObserver is the bench-defined ObserverPolicy plugged into the client
// engine in the traced run: the engine reports each stage's duration as it
// ends, so the span is [now - ns, now], parented to the request's root.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/observer.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the process-wide epoch every span shares.
std::int64_t now_ns();

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root
  std::uint64_t request = 0;

  std::int64_t duration_ns() const noexcept { return end_ns - start_ns; }
};

/// A span id unique across every log (a root's id is taken before its
/// children are recorded, the root itself after it ends).
std::uint64_t new_span_id();

/// One thread's spans, in the order they ended.
class SpanLog {
 public:
  explicit SpanLog(std::string thread, std::size_t max_spans = 1u << 14)
      : thread_(std::move(thread)), max_spans_(max_spans) {}

  /// Records a span; once the log holds max_spans, further spans are
  /// dropped (the per-stage totals kept beside the logs stay exact).
  void add(const Span& s) {
    if (spans_.size() < max_spans_) spans_.push_back(s);
  }

  const std::string& thread() const noexcept { return thread_; }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::string thread_;
  std::size_t max_spans_;
  std::vector<Span> spans_;
};

/// Logs shared by threads the bench does not own (server workers): a mutex
/// around one SpanLog.
class SharedSpanLog {
 public:
  SharedSpanLog(std::string thread, std::size_t max_spans)
      : log_(std::move(thread), max_spans) {}

  void add(const Span& s) {
    std::lock_guard lock(mu_);
    log_.add(s);
  }
  const SpanLog& log() const noexcept { return log_; }

 private:
  std::mutex mu_;
  SpanLog log_;
};

/// Per-client trace state: the span log, the request in flight, and
/// uncapped per-stage totals (the means cover every exchange even after
/// the span log fills).
struct ClientTrace {
  explicit ClientTrace(std::string thread) : log(std::move(thread)) {}

  SpanLog log;
  std::uint64_t request = 0;
  std::uint64_t root = 0;
  std::array<std::uint64_t, bxsoap::obs::kStageCount> stage_ns{};
};

class SpanObserver {
 public:
  static constexpr bool kEnabled = true;

  SpanObserver() = default;
  explicit SpanObserver(ClientTrace* trace) : trace_(trace) {}

  void stage_ns(bxsoap::obs::Stage s, std::uint64_t ns);
  void stage_bytes(bxsoap::obs::Stage, std::uint64_t) noexcept {}
  void count_exchange() noexcept {}
  void count_fault() noexcept {}

 private:
  ClientTrace* trace_ = nullptr;
};

static_assert(bxsoap::obs::ObserverPolicy<SpanObserver>);

/// Writes every log as one JSON document: {"threads":[{"thread":...,
/// "spans":[{name,start_ns,end_ns,id,parent,request}...]}...]}. Returns
/// false when the file cannot be written.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
