#include "common/buffer.hpp"

#include <algorithm>

#include "common/buffer_pool.hpp"

namespace bxsoap {

ByteWriter::ByteWriter(BufferPool& pool, std::size_t reserve)
    : buf_(pool.acquire(reserve)), pool_(&pool) {}

void ByteWriter::grow(std::size_t n) {
  const std::size_t want = std::max(buf_.size() + n, 2 * buf_.capacity());
  if (pool_ == nullptr) {
    buf_.reserve(want);
    return;
  }
  std::vector<std::uint8_t> bigger = pool_->acquire(want);
  bigger.insert(bigger.end(), buf_.begin(), buf_.end());
  pool_->release(std::move(buf_));
  buf_ = std::move(bigger);
}

}  // namespace bxsoap
