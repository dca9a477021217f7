#include "transport/server.hpp"

#include "transport/internal/event_server.hpp"

namespace bxsoap::transport {

std::string ServerConfig::validate() const {
  std::vector<std::string> errors;
  const auto fail = [&errors](std::string msg) {
    errors.push_back(std::move(msg));
  };

  if (encoding == nullptr) {
    fail("encoding must be set (AnyEncoding::from(...))");
  }
  if (!handler && !stream_handler) {
    fail("at least one of handler / stream_handler must be set");
  }
  if (worker_threads == 0 && max_inflight_per_conn > 0) {
    fail("max_inflight_per_conn needs a worker pool: with worker_threads "
         "= 0 each exchange runs inline on its reactor, so a connection "
         "never has more than one request in flight; set worker_threads "
         "or leave it 0");
  }
  if (shed_retry_after.count() < 0) {
    fail("shed_retry_after must be >= 0");
  }
  if (stream_chunk_bytes == 0) {
    fail("stream_chunk_bytes must be > 0");
  }
  if (stream_chunk_bytes > frame_limits.max_chunk_bytes) {
    fail("stream_chunk_bytes (" + std::to_string(stream_chunk_bytes) +
         ") exceeds frame_limits.max_chunk_bytes (" +
         std::to_string(frame_limits.max_chunk_bytes) +
         "): the server would emit chunks it refuses to accept");
  }
  if (frame_limits.max_message_bytes == 0) {
    fail("frame_limits.max_message_bytes must be > 0");
  }
  if (frame_limits.max_chunk_bytes == 0) {
    fail("frame_limits.max_chunk_bytes must be > 0");
  }
  if (backlog <= 0) {
    fail("backlog must be > 0");
  }
  if (read_timeout_ms < 0) {
    fail("read_timeout_ms must be >= 0 (0 disables the timeout)");
  }
  if (drain_timeout.count() < 0) {
    fail("drain_timeout must be >= 0");
  }
  if (buffer_pool.max_buffers_per_class == 0) {
    fail("buffer_pool.max_buffers_per_class must be > 0 (a zero-capacity "
         "pool recycles nothing; to disable only the per-thread tier set "
         "thread_cache_buffers_per_class = 0)");
  }
  if (buffer_pool.max_class_bytes < buffer_pool.min_class_bytes) {
    fail("buffer_pool.max_class_bytes must be >= min_class_bytes");
  }
  if ((compress_transforms & ~transforms::kAll) != 0) {
    fail("compress_transforms has unknown transform bits set (known: "
         "transforms::kLzss | transforms::kShuffleLzss)");
  }
  if (compress_transforms != 0 && !accept_v3) {
    fail("compress_transforms requires accept_v3: the transform set is "
         "negotiated by the v3 Hello/Accept handshake");
  }
  if (compress_transforms != 0 && compress_policy.min_bytes == 0) {
    fail("compress_policy.min_bytes must be > 0 (empty bodies cannot "
         "shrink; 1 disables the floor in practice)");
  }
  if (stream_auth.algos != 0 || stream_auth.make) {
    if ((stream_auth.algos & ~authalgs::kAllKnown) != 0) {
      fail("stream_auth.algos has unknown algorithm bits set (known: "
           "authalgs::kHmacSha256 | authalgs::kFnv1a64)");
    }
    if (stream_auth.algos == 0 || !stream_auth.make) {
      fail("stream_auth must set both algos and make (use a "
           "MessageSecurity policy's stream_auth())");
    }
    if (!accept_v3) {
      fail("stream_auth requires accept_v3: the algorithm is negotiated "
           "by the v3 Hello/Accept handshake");
    }
  }
  if (!idempotent_ops.empty()) {
    if (!handler) {
      fail("idempotent_ops caches request/response exchanges, which need "
           "a request handler");
    }
    if (respcache_max_entries == 0 || respcache_max_bytes == 0) {
      fail("idempotent_ops is set but the response cache is sized to zero "
           "(respcache_max_entries / respcache_max_bytes)");
    }
    for (const std::string& op : idempotent_ops) {
      if (op.empty()) fail("idempotent_ops contains an empty operation name");
    }
  }

  std::string joined;
  for (const std::string& e : errors) {
    if (!joined.empty()) joined += "; ";
    joined += e;
  }
  return joined;
}

std::unique_ptr<SoapServer> SoapServer::create(ConcurrencyModel /*model*/,
                                               ServerConfig config) {
  const std::string errors = config.validate();
  if (!errors.empty()) {
    throw TransportError("invalid ServerConfig: " + errors);
  }
  if (config.metrics_prefix.empty()) config.metrics_prefix = "event";
  return std::make_unique<SoapEventServer>(std::move(config));
}

}  // namespace bxsoap::transport
