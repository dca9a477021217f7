#include "trace.hpp"

#include <atomic>
#include <cstdio>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();
std::atomic<std::uint64_t> next_span_id{1};

/// Span names for the engine stages ("soap.client.<stage>").
const char* client_stage_span(bxsoap::obs::Stage s) {
  static constexpr const char* kNames[bxsoap::obs::kStageCount] = {
      "soap.client.serialize",  "soap.client.frame_write",
      "soap.client.send",       "soap.client.receive",
      "soap.client.frame_read", "soap.client.deserialize",
      "soap.client.handler",    "soap.client.security",
  };
  return kNames[static_cast<std::size_t>(s)];
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kEpoch)
      .count();
}

std::uint64_t new_span_id() {
  return next_span_id.fetch_add(1, std::memory_order_relaxed);
}

void SpanObserver::stage_ns(bxsoap::obs::Stage s, std::uint64_t ns) {
  if (trace_ == nullptr) return;
  const std::int64_t end = now_ns();
  const auto i = static_cast<std::size_t>(s);
  trace_->stage_ns[i] += ns;
  trace_->log.add(Span{client_stage_span(s),
                       end - static_cast<std::int64_t>(ns), end,
                       new_span_id(), trace_->root, trace_->request});
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"threads\":[", f);
  for (std::size_t t = 0; t < logs.size(); ++t) {
    std::fprintf(f, "%s\n{\"thread\":\"%s\",\"spans\":[", t ? "," : "",
                 logs[t]->thread().c_str());
    const std::vector<Span>& spans = logs[t]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"id\":%llu,\"parent\":%llu,\"request\":%llu}",
                   i ? "," : "", s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.request));
    }
    std::fputs("]}", f);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
