// Size-class-aware recycling of payload buffers (the zero-copy hot path's
// allocation amortizer).
//
// Every message on the wire used to cost at least three fresh heap
// allocations: the encoder's output vector, the WireMessage payload, and the
// receive-side frame buffer. BufferPool recycles those vectors across
// messages so a steady-state server allocates (almost) nothing per call.
//
// Design:
//   * Buffers are plain std::vector<std::uint8_t>; the pool only keeps their
//     storage alive. Releasing a buffer into a different pool than it was
//     acquired from is therefore harmless — it is just a vector. A buffer
//     keeps its size while pooled, so a receive path can overwrite a
//     recycled buffer in place without value-initializing it first
//     (acquire_for_overwrite); acquire() hands out an empty one.
//   * Power-of-two size classes. acquire(min_capacity) rounds the request UP
//     to the next class so a recycled buffer always satisfies the caller
//     without an immediate regrow; release() files a buffer under the class
//     its capacity fully covers (round DOWN). An acquire is served from its
//     own class or at most eight above it, so no request takes a buffer
//     more than 256x its size: a 256-byte reply leaves a 4 MiB receive
//     buffer for the next receive. A writer that outgrows a small acquire
//     moves to the class it then needs (ByteWriter's pool constructor), so
//     a bulk message still lands in a recycled buffer of its size.
//   * Each class holds at most `max_buffers_per_class` buffers in the shared
//     tier; extra releases simply free. Buffers above the largest class are
//     never pooled (a multi-GiB outlier must not pin memory forever).
//   * In front of the shared tier sits a per-thread cache: a small free list
//     (up to `thread_cache_buffers_per_class` per class) owned by the calling
//     thread, so steady-state acquire/release on a reactor or worker thread
//     never touches the shared mutex. Each cache carries its own (otherwise
//     uncontended) mutex so the owning pool can drain it at destruction and
//     pooled_buffers() can observe it — under TSan as well as in production
//     this makes the handoff a proper synchronized edge, not a data race.
//   * hit/miss/recycled_bytes are relaxed internal atomics, optionally
//     mirrored into obs::Counter instances via attach_counters() (the
//     counters' methods are inline, so common/ takes no link dependency on
//     obs/). Thread-cache hits count as ordinary hits: the `pool.*` counter
//     names aggregate both tiers.
//
// Thread safety: all members are safe to call concurrently. Thread caches are
// keyed by a process-unique pool id (never an address, so a pool constructed
// at a dead pool's address cannot inherit its buffers), and a destroyed
// pool's caches are emptied eagerly — a thread that outlives the pool keeps
// only an empty, dead husk until it next touches a pool. A thread that
// exits hands its caches' buffers to their pools' shared tiers, so a
// short-lived thread (a client's per-call stream producer) pins nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace bxsoap::obs {
class Counter;
}  // namespace bxsoap::obs

namespace bxsoap {

class BufferPool {
 public:
  struct Config {
    /// Smallest size class, in bytes (requests below round up to this).
    std::size_t min_class_bytes = 256;
    /// Largest poolable capacity; bigger buffers are freed, not pooled.
    std::size_t max_class_bytes = std::size_t{1} << 26;  // 64 MiB
    /// Cap per size class in the shared tier: extra releases free instead of
    /// pooling.
    std::size_t max_buffers_per_class = 16;
    /// Per-thread cache depth per size class. 0 disables the caches and every
    /// acquire/release goes straight to the shared tier.
    std::size_t thread_cache_buffers_per_class = 4;
  };

  struct Stats {
    std::uint64_t hit = 0;             ///< acquire() served from the pool
    std::uint64_t miss = 0;            ///< acquire() fell through to malloc
    std::uint64_t recycled_bytes = 0;  ///< capacity returned via release()
  };

  BufferPool() : BufferPool(Config{}) {}
  explicit BufferPool(Config cfg);
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Returns an empty vector with capacity >= min_capacity, recycled when a
  /// matching size class (its own or up to eight above) has one — this
  /// thread's cache first, then shared.
  std::vector<std::uint8_t> acquire(std::size_t min_capacity);

  /// acquire() without the clear: a recycled buffer keeps the size it was
  /// released with, its bytes left over from its last use. For a caller
  /// about to overwrite them (a receive buffer sized by a peer's declared
  /// length), which may then shrink it or grow only the tail instead of
  /// value-initializing bytes that recv() overwrites. Stale bytes must
  /// never be exposed as data.
  std::vector<std::uint8_t> acquire_for_overwrite(std::size_t min_capacity);

  /// Hands a buffer's storage back for reuse. Keeps its capacity and size
  /// (acquire() clears it, acquire_for_overwrite() does not).
  void release(std::vector<std::uint8_t> buf);

  Stats stats() const noexcept;

  /// Number of buffers currently cached, shared tier plus every live thread
  /// cache (for tests).
  std::size_t pooled_buffers() const;

  /// Mirror hit/miss/recycled_bytes into observability counters (typically
  /// registry.counter("pool.hit") etc.). Pass nullptrs to detach. The
  /// counters must outlive the pool or the next detach, whichever is first.
  void attach_counters(obs::Counter* hit, obs::Counter* miss,
                       obs::Counter* recycled_bytes) noexcept;

  /// Process-wide default pool, used wherever no explicit pool is plumbed.
  static BufferPool& global();

 private:
  /// One thread's private free lists for one pool. Shared ownership between
  /// the owning thread (thread_local slot) and the pool's registry; `mu` is
  /// uncontended except when the pool drains at destruction or a test calls
  /// pooled_buffers().
  struct ThreadCache {
    std::mutex mu;
    /// The owning pool is gone, or the owning thread has exited and
    /// retired the cache; never refill.
    bool dead = false;
    BufferPool* pool = nullptr;  ///< valid while !dead
    std::vector<std::vector<std::vector<std::uint8_t>>> classes;
  };

  std::size_t class_index_up(std::size_t bytes) const noexcept;
  ThreadCache* this_thread_cache();
  /// At thread exit: move the cache's buffers into its pool's shared tier
  /// (up to max_buffers_per_class each; the rest free) and mark it dead.
  static void retire(ThreadCache& tc);

  Config cfg_;
  std::size_t num_classes_;
  std::uint64_t id_;  ///< process-unique, never reused

  mutable std::mutex mu_;
  std::vector<std::vector<std::vector<std::uint8_t>>> classes_;

  mutable std::mutex caches_mu_;
  std::vector<std::shared_ptr<ThreadCache>> caches_;

  std::atomic<std::uint64_t> hit_{0};
  std::atomic<std::uint64_t> miss_{0};
  std::atomic<std::uint64_t> recycled_bytes_{0};

  std::atomic<obs::Counter*> hit_counter_{nullptr};
  std::atomic<obs::Counter*> miss_counter_{nullptr};
  std::atomic<obs::Counter*> recycled_counter_{nullptr};
};

/// Shared ownership of one wire buffer, recycled into a BufferPool when the
/// last reference drops. This is what ties a zero-copy decoded tree to the
/// bytes it points into: every view-backed ArrayElement holds handle().
class SharedBuffer {
 public:
  SharedBuffer() = default;

  /// Take ownership of `bytes`; recycle into `pool` on last release
  /// (pool == nullptr: plain free).
  static SharedBuffer adopt(std::vector<std::uint8_t> bytes,
                            BufferPool* pool = nullptr) {
    SharedBuffer b;
    b.holder_ = std::make_shared<Holder>(std::move(bytes), pool);
    return b;
  }

  bool valid() const noexcept { return holder_ != nullptr; }

  std::span<const std::uint8_t> bytes() const noexcept {
    if (!holder_) return {};
    return {holder_->bytes.data(), holder_->bytes.size()};
  }

  /// Type-erased keepalive for decoded views into bytes().
  std::shared_ptr<const void> handle() const noexcept {
    if (!holder_) return nullptr;
    return std::shared_ptr<const void>(holder_, holder_->bytes.data());
  }

 private:
  struct Holder {
    Holder(std::vector<std::uint8_t> b, BufferPool* p)
        : bytes(std::move(b)), pool(p) {}
    ~Holder() {
      if (pool != nullptr) pool->release(std::move(bytes));
    }
    std::vector<std::uint8_t> bytes;
    BufferPool* pool;
  };

  std::shared_ptr<Holder> holder_;
};

}  // namespace bxsoap
