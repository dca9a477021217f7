// BufferPool: size-class policy, counters, SharedBuffer recycling, and a
// multi-threaded stress run.
#include "common/buffer_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

namespace bxsoap {
namespace {

TEST(BufferPool, FirstAcquireIsAMissWithRoundedCapacity) {
  BufferPool pool;
  auto buf = pool.acquire(1000);
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 1024u);  // rounded up to the next power of two
  const auto s = pool.stats();
  EXPECT_EQ(s.hit, 0u);
  EXPECT_EQ(s.miss, 1u);
}

TEST(BufferPool, ReleaseThenAcquireHits) {
  BufferPool pool;
  auto buf = pool.acquire(4096);
  buf.resize(100, 0xAB);  // dirty; the pool must hand it back cleared
  const std::size_t cap = buf.capacity();
  pool.release(std::move(buf));
  EXPECT_EQ(pool.stats().recycled_bytes, cap);
  EXPECT_EQ(pool.pooled_buffers(), 1u);

  auto again = pool.acquire(4096);
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 4096u);
  const auto s = pool.stats();
  EXPECT_EQ(s.hit, 1u);
  EXPECT_EQ(s.miss, 1u);
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

TEST(BufferPool, AcquireForOverwriteKeepsTheReleasedSize) {
  BufferPool pool;
  auto buf = pool.acquire(8192);
  buf.assign(5000, 0xCD);
  pool.release(std::move(buf));
  // The bytes stay: a receive path overwrites them instead of filling.
  auto dirty = pool.acquire_for_overwrite(6000);
  ASSERT_EQ(dirty.size(), 5000u);
  EXPECT_EQ(dirty[0], 0xCD);
  EXPECT_EQ(dirty[4999], 0xCD);
  pool.release(std::move(dirty));
  // A plain acquire still hands the same buffer out empty.
  auto clean = pool.acquire(6000);
  EXPECT_TRUE(clean.empty());
  EXPECT_GE(clean.capacity(), 8192u);
  EXPECT_EQ(pool.stats().hit, 2u);
  // A miss has nothing to keep.
  EXPECT_TRUE(pool.acquire_for_overwrite(1u << 20).empty());
}

TEST(BufferPool, LargerClassSatisfiesSmallerRequest) {
  BufferPool pool;
  auto big = pool.acquire(1 << 20);
  pool.release(std::move(big));
  // A request a few classes smaller may be served by the pooled 1 MiB
  // buffer...
  auto smaller = pool.acquire(256 * 1024);
  EXPECT_EQ(pool.stats().hit, 1u);
  EXPECT_GE(smaller.capacity(), 1u << 20);
  pool.release(std::move(smaller));
  // ...but a far smaller one is not: the big buffer stays for a caller of
  // its own size.
  auto small = pool.acquire(512);
  EXPECT_EQ(pool.stats().hit, 1u);
  EXPECT_EQ(pool.stats().miss, 2u);
  EXPECT_GE(small.capacity(), 512u);
}

TEST(BufferPool, AcquireNeverRegrowsFromItsClass) {
  BufferPool pool;
  // A buffer whose capacity is mid-class files under the class it fully
  // covers, so acquire(its class size) never triggers an immediate regrow.
  std::vector<std::uint8_t> odd;
  odd.reserve(3000);  // covers the 2048 class, not 4096
  pool.release(std::move(odd));
  auto got = pool.acquire(2048);
  EXPECT_EQ(pool.stats().hit, 1u);
  EXPECT_GE(got.capacity(), 2048u);
  // And a 4096 request must NOT be served by the 3000-capacity buffer.
  BufferPool pool2;
  std::vector<std::uint8_t> odd2;
  odd2.reserve(3000);
  pool2.release(std::move(odd2));
  auto bigger = pool2.acquire(4096);
  EXPECT_EQ(pool2.stats().miss, 1u);
  EXPECT_GE(bigger.capacity(), 4096u);
}

TEST(BufferPool, OversizedAndTinyBuffersAreNotPooled) {
  BufferPool::Config cfg;
  cfg.max_class_bytes = 1 << 16;
  BufferPool pool(cfg);
  std::vector<std::uint8_t> huge;
  huge.reserve((1 << 16) + 1);
  pool.release(std::move(huge));
  std::vector<std::uint8_t> tiny;  // capacity 0
  pool.release(std::move(tiny));
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

TEST(BufferPool, PerClassCapBoundsPooledBuffers) {
  BufferPool::Config cfg;
  cfg.max_buffers_per_class = 2;
  cfg.thread_cache_buffers_per_class = 0;  // shared tier only
  BufferPool pool(cfg);
  for (int i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> b;
    b.reserve(1024);
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.pooled_buffers(), 2u);
}

TEST(BufferPool, ThreadCacheFillsFirstThenSpillsToSharedTier) {
  BufferPool::Config cfg;
  cfg.thread_cache_buffers_per_class = 2;
  cfg.max_buffers_per_class = 1;
  BufferPool pool(cfg);
  // 4 releases into one class: 2 land in this thread's cache, 1 spills to
  // the shared tier, the 4th frees (both tiers full).
  for (int i = 0; i < 4; ++i) {
    std::vector<std::uint8_t> b;
    b.reserve(1024);
    pool.release(std::move(b));
  }
  EXPECT_EQ(pool.pooled_buffers(), 3u);
  // All three are reachable from this thread: cache first, then shared.
  for (int i = 0; i < 3; ++i) (void)pool.acquire(1024);
  EXPECT_EQ(pool.stats().hit, 3u);
  EXPECT_EQ(pool.pooled_buffers(), 0u);
}

TEST(BufferPool, AnotherThreadsCacheIsInvisibleButSpillIsShared) {
  BufferPool::Config cfg;
  cfg.thread_cache_buffers_per_class = 4;
  cfg.max_buffers_per_class = 16;
  BufferPool pool(cfg);
  std::latch released(1);
  std::latch checked(1);
  std::thread releaser([&] {
    for (int i = 0; i < 5; ++i) {
      std::vector<std::uint8_t> b;
      b.reserve(2048);
      pool.release(std::move(b));
    }
    released.count_down();
    checked.wait();  // stay alive: an exited thread's cache is handed back
  });
  released.wait();
  // 4 buffers sit in the (now idle) releaser thread's cache, 1 spilled to
  // the shared tier. This thread can only reach the spilled one.
  EXPECT_EQ(pool.pooled_buffers(), 5u);
  (void)pool.acquire(2048);
  EXPECT_EQ(pool.stats().hit, 1u);
  (void)pool.acquire(2048);
  EXPECT_EQ(pool.stats().miss, 1u);
  checked.count_down();
  releaser.join();
}

TEST(BufferPool, ExitedThreadsCachesGoBackToTheSharedTier) {
  BufferPool::Config cfg;
  BufferPool pool(cfg);
  constexpr int kThreads = 64;
  std::latch acquired(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      std::vector<std::uint8_t> buf = pool.acquire(64 * 1024);
      acquired.arrive_and_wait();  // 64 buffers in hand at once
      pool.release(std::move(buf));  // into this thread's cache
    });
  }
  for (auto& th : threads) th.join();
  // Each exited thread's cache went back to the shared tier, up to its
  // per-class cap; the rest were freed, not pinned.
  EXPECT_LE(pool.pooled_buffers(), cfg.max_buffers_per_class);
  const std::uint64_t hits = pool.stats().hit;
  (void)pool.acquire(64 * 1024);
  EXPECT_EQ(pool.stats().hit, hits + 1);
}

TEST(BufferPool, DestroyedPoolDrainsItsThreadCaches) {
  auto pool = std::make_unique<BufferPool>();
  auto buf = pool->acquire(4096);
  pool->release(std::move(buf));  // sits in this thread's cache
  EXPECT_EQ(pool->pooled_buffers(), 1u);
  pool.reset();  // must drop the cached buffer, not leak or dangle
  // A fresh pool on this thread starts cold: pool ids are never reused, so
  // it cannot inherit the dead pool's cache slot.
  BufferPool fresh;
  (void)fresh.acquire(4096);
  EXPECT_EQ(fresh.stats().miss, 1u);
  EXPECT_EQ(fresh.stats().hit, 0u);
}

TEST(SharedBuffer, RecyclesIntoPoolOnLastRelease) {
  BufferPool pool;
  {
    auto buf = pool.acquire(2048);
    buf.resize(16, 7);
    SharedBuffer wire = SharedBuffer::adopt(std::move(buf), &pool);
    ASSERT_TRUE(wire.valid());
    EXPECT_EQ(wire.bytes().size(), 16u);
    std::shared_ptr<const void> extra = wire.handle();
    // Both references alive: nothing recycled yet.
    EXPECT_EQ(pool.pooled_buffers(), 0u);
  }
  // SharedBuffer and handle both dropped: the storage is back in the pool.
  EXPECT_EQ(pool.pooled_buffers(), 1u);
  auto again = pool.acquire(2048);
  EXPECT_EQ(pool.stats().hit, 1u);
}

TEST(SharedBuffer, HandleOutlivesTheSharedBuffer) {
  BufferPool pool;
  std::shared_ptr<const void> keepalive;
  const std::uint8_t* data = nullptr;
  {
    std::vector<std::uint8_t> bytes(1024);
    std::iota(bytes.begin(), bytes.end(), std::uint8_t{0});
    SharedBuffer wire = SharedBuffer::adopt(std::move(bytes), &pool);
    data = wire.bytes().data();
    keepalive = wire.handle();
  }
  // The handle alone pins the bytes (this is what a view-backed
  // ArrayElement holds after the decode scope ends).
  EXPECT_EQ(pool.pooled_buffers(), 0u);
  EXPECT_EQ(data[63], 63);
  keepalive.reset();
  EXPECT_EQ(pool.pooled_buffers(), 1u);
}

TEST(BufferPool, MultiThreadedStress) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kIterations = 2000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &failed, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t want = 64u << (i % 8);
        auto buf = pool.acquire(want);
        if (!buf.empty() || buf.capacity() < want) {
          failed.store(true);
          return;
        }
        // Write a thread-unique pattern; a data race on shared storage
        // would trip TSan and likely corrupt the size check above.
        buf.resize(want, static_cast<std::uint8_t>(t));
        if (i % 3 == 0) {
          SharedBuffer wire = SharedBuffer::adopt(std::move(buf), &pool);
          auto h = wire.handle();
          if (wire.bytes().size() != want) {
            failed.store(true);
            return;
          }
        } else {
          pool.release(std::move(buf));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(failed.load());
  const auto s = pool.stats();
  EXPECT_EQ(s.hit + s.miss, kThreads * kIterations);
  EXPECT_GT(s.hit, 0u);
  EXPECT_GT(s.recycled_bytes, 0u);
}

// TSan target for the per-thread caches: 8 threads churn acquire/release
// while buffers also migrate across threads (acquired on one, dropped on
// another via SharedBuffer) and the main thread polls pooled_buffers(),
// exercising every cache's mutex from a foreign thread concurrently with its
// owner's fast path.
TEST(BufferPool, ThreadCacheChurnAcrossThreads) {
  BufferPool pool;
  constexpr int kThreads = 8;
  constexpr int kIterations = 1000;
  std::mutex handoff_mu;
  std::vector<SharedBuffer> handoff;
  std::atomic<bool> failed{false};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::size_t want = 256u << (i % 6);
        auto buf = pool.acquire(want);
        if (buf.capacity() < want) {
          failed.store(true);
          break;
        }
        buf.resize(want, static_cast<std::uint8_t>(t));
        if (i % 2 == 0) {
          pool.release(std::move(buf));  // same-thread recycle
        } else {
          // Park the buffer for some other thread to drop: the release then
          // lands in a different thread's cache than the acquire came from.
          SharedBuffer wire = SharedBuffer::adopt(std::move(buf), &pool);
          std::lock_guard<std::mutex> lock(handoff_mu);
          handoff.push_back(std::move(wire));
          if (handoff.size() > 16) handoff.erase(handoff.begin());
        }
      }
      running.fetch_sub(1);
    });
  }
  while (running.load() > 0) {
    (void)pool.pooled_buffers();  // foreign-thread walk of every cache
    std::this_thread::yield();
  }
  for (auto& th : threads) th.join();
  {
    std::lock_guard<std::mutex> lock(handoff_mu);
    handoff.clear();
  }
  EXPECT_FALSE(failed.load());
  const auto s = pool.stats();
  EXPECT_EQ(s.hit + s.miss, kThreads * kIterations);
  EXPECT_GT(s.hit, 0u);
}

}  // namespace
}  // namespace bxsoap
