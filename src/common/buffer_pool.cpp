#include "common/buffer_pool.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"

namespace bxsoap {

namespace {

std::size_t floor_log2(std::size_t v) {
  return static_cast<std::size_t>(std::bit_width(v) - 1);
}

/// How many classes above its own an acquire may be served from: up to
/// 256x the request. A bigger recycled buffer still satisfies the caller,
/// but one far bigger is worth more to the next caller of its own size: a
/// 256-byte response must not take the 4 MiB buffer a bulk receive is
/// about to ask for, yet a moderately larger one is worth reusing.
constexpr std::size_t kClassReach = 8;

std::uint64_t next_pool_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

BufferPool::BufferPool(Config cfg) : cfg_(cfg), id_(next_pool_id()) {
  if (cfg_.min_class_bytes < 16) cfg_.min_class_bytes = 16;
  cfg_.min_class_bytes = std::bit_ceil(cfg_.min_class_bytes);
  cfg_.max_class_bytes = std::bit_ceil(cfg_.max_class_bytes);
  if (cfg_.max_class_bytes < cfg_.min_class_bytes) {
    cfg_.max_class_bytes = cfg_.min_class_bytes;
  }
  num_classes_ =
      floor_log2(cfg_.max_class_bytes) - floor_log2(cfg_.min_class_bytes) + 1;
  classes_.resize(num_classes_);
}

BufferPool::~BufferPool() {
  // Kill every thread cache handed out for this pool. Threads that outlive
  // the pool still hold a shared_ptr to the husk, but it is empty and marked
  // dead, so nothing dangles and no capacity stays pinned.
  std::lock_guard<std::mutex> reg_lock(caches_mu_);
  for (const auto& cache : caches_) {
    std::lock_guard<std::mutex> lock(cache->mu);
    cache->dead = true;
    cache->classes.clear();
  }
}

std::size_t BufferPool::class_index_up(std::size_t bytes) const noexcept {
  if (bytes <= cfg_.min_class_bytes) return 0;
  return floor_log2(std::bit_ceil(bytes)) - floor_log2(cfg_.min_class_bytes);
}

void BufferPool::retire(ThreadCache& tc) {
  std::lock_guard<std::mutex> lock(tc.mu);
  // A dead cache's pool is gone. A live one's cannot finish its destructor
  // while this lock is held, since it must mark the cache dead first.
  if (tc.dead) return;
  tc.dead = true;
  BufferPool& pool = *tc.pool;
  {
    std::lock_guard<std::mutex> shared(pool.mu_);
    for (std::size_t i = 0; i < tc.classes.size(); ++i) {
      for (std::vector<std::uint8_t>& buf : tc.classes[i]) {
        if (pool.classes_[i].size() >= pool.cfg_.max_buffers_per_class) break;
        pool.classes_[i].push_back(std::move(buf));
      }
    }
  }
  tc.classes.clear();  // the rest free here
}

BufferPool::ThreadCache* BufferPool::this_thread_cache() {
  struct Slot {
    std::uint64_t pool_id = 0;
    std::shared_ptr<ThreadCache> cache;
  };
  // Most threads touch one or two pools; a tiny move-to-front vector beats a
  // hash map. Keyed by pool id, never address: ids are not reused, so a new
  // pool allocated where a dead one lived cannot inherit its cache. When the
  // thread exits, each cache goes back to its pool.
  struct Slots : std::vector<Slot> {
    ~Slots() {
      for (const Slot& s : *this) retire(*s.cache);
    }
  };
  thread_local Slots slots;

  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].pool_id == id_) {
      if (i != 0) std::swap(slots[0], slots[i]);
      return slots[0].cache.get();
    }
  }
  // Drop husks of destroyed pools before adding a slot, so a long-lived
  // thread cycling through many short-lived pools stays O(live pools).
  std::erase_if(slots, [](const Slot& s) {
    std::lock_guard<std::mutex> lock(s.cache->mu);
    return s.cache->dead;
  });

  auto cache = std::make_shared<ThreadCache>();
  cache->pool = this;
  cache->classes.resize(num_classes_);
  {
    std::lock_guard<std::mutex> lock(caches_mu_);
    // Forget the caches of threads that have exited (retire() emptied
    // them), so the list stays O(live threads).
    std::erase_if(caches_, [](const std::shared_ptr<ThreadCache>& c) {
      std::lock_guard<std::mutex> cache_lock(c->mu);
      return c->dead;
    });
    caches_.push_back(cache);
  }
  slots.insert(slots.begin(), Slot{id_, cache});
  return slots.front().cache.get();
}

std::vector<std::uint8_t> BufferPool::acquire(std::size_t min_capacity) {
  std::vector<std::uint8_t> buf = acquire_for_overwrite(min_capacity);
  buf.clear();
  return buf;
}

std::vector<std::uint8_t> BufferPool::acquire_for_overwrite(
    std::size_t min_capacity) {
  if (min_capacity <= cfg_.max_class_bytes) {
    const std::size_t idx = class_index_up(min_capacity);
    const std::size_t end = std::min(idx + kClassReach + 1, num_classes_);
    // Tier 1: this thread's cache. The lock is private to this thread except
    // during pool teardown / pooled_buffers(), so it is effectively free.
    if (cfg_.thread_cache_buffers_per_class > 0) {
      ThreadCache* tc = this_thread_cache();
      std::unique_lock<std::mutex> lock(tc->mu);
      for (std::size_t i = idx; i < end; ++i) {
        if (!tc->classes[i].empty()) {
          std::vector<std::uint8_t> buf = std::move(tc->classes[i].back());
          tc->classes[i].pop_back();
          lock.unlock();
          hit_.fetch_add(1, std::memory_order_relaxed);
          if (auto* c = hit_counter_.load(std::memory_order_relaxed)) c->add();
          return buf;
        }
      }
    }
    // Tier 2: the shared pool. Serve from the requested class or one of the
    // kClassReach above it.
    std::unique_lock<std::mutex> lock(mu_);
    for (std::size_t i = idx; i < end; ++i) {
      if (!classes_[i].empty()) {
        std::vector<std::uint8_t> buf = std::move(classes_[i].back());
        classes_[i].pop_back();
        lock.unlock();
        hit_.fetch_add(1, std::memory_order_relaxed);
        if (auto* c = hit_counter_.load(std::memory_order_relaxed)) c->add();
        return buf;
      }
    }
  }
  miss_.fetch_add(1, std::memory_order_relaxed);
  if (auto* c = miss_counter_.load(std::memory_order_relaxed)) c->add();
  std::vector<std::uint8_t> buf;
  const std::size_t cap = min_capacity <= cfg_.max_class_bytes
                              ? cfg_.min_class_bytes << class_index_up(min_capacity)
                              : min_capacity;
  buf.reserve(cap);
  return buf;
}

void BufferPool::release(std::vector<std::uint8_t> buf) {
  const std::size_t cap = buf.capacity();
  if (cap < cfg_.min_class_bytes || cap > cfg_.max_class_bytes) {
    return;  // too small to be worth pooling, or too big to pin
  }
  // File under the class this capacity fully covers (round down), so a
  // future acquire from that class never triggers an immediate regrow.
  const std::size_t idx =
      floor_log2(cap) - floor_log2(cfg_.min_class_bytes);
  bool pooled = false;
  if (cfg_.thread_cache_buffers_per_class > 0) {
    ThreadCache* tc = this_thread_cache();
    std::lock_guard<std::mutex> lock(tc->mu);
    if (!tc->dead &&
        tc->classes[idx].size() < cfg_.thread_cache_buffers_per_class) {
      tc->classes[idx].push_back(std::move(buf));
      pooled = true;
    }
  }
  if (!pooled) {
    std::lock_guard<std::mutex> lock(mu_);
    if (classes_[idx].size() >= cfg_.max_buffers_per_class) {
      return;  // class full: let the vector free on scope exit
    }
    classes_[idx].push_back(std::move(buf));
  }
  recycled_bytes_.fetch_add(cap, std::memory_order_relaxed);
  if (auto* c = recycled_counter_.load(std::memory_order_relaxed)) {
    c->add(cap);
  }
}

BufferPool::Stats BufferPool::stats() const noexcept {
  Stats s;
  s.hit = hit_.load(std::memory_order_relaxed);
  s.miss = miss_.load(std::memory_order_relaxed);
  s.recycled_bytes = recycled_bytes_.load(std::memory_order_relaxed);
  return s;
}

std::size_t BufferPool::pooled_buffers() const {
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& c : classes_) n += c.size();
  }
  std::lock_guard<std::mutex> reg_lock(caches_mu_);
  for (const auto& cache : caches_) {
    std::lock_guard<std::mutex> lock(cache->mu);
    for (const auto& c : cache->classes) n += c.size();
  }
  return n;
}

void BufferPool::attach_counters(obs::Counter* hit, obs::Counter* miss,
                                 obs::Counter* recycled_bytes) noexcept {
  hit_counter_.store(hit, std::memory_order_relaxed);
  miss_counter_.store(miss, std::memory_order_relaxed);
  recycled_counter_.store(recycled_bytes, std::memory_order_relaxed);
}

BufferPool& BufferPool::global() {
  static BufferPool pool;
  return pool;
}

}  // namespace bxsoap
