// XBS — a minimal streaming binary serializer (Chiu, HPC Symposium 2004).
//
// The format the paper layers BXSA on. It packs fundamental types into a
// byte sequence:
//   * 1-, 2-, 4- and 8-byte integers,
//   * 4- and 8-byte IEEE-754 floating-point numbers,
//   * 1-dimensional arrays of the above,
// in either byte order. Array payloads are aligned to a multiple of the
// item size *relative to the stream origin*, so a consumer that maps the
// stream at an aligned address can point native array types directly at the
// payload (the zero-copy property BXSA's ArrayElement relies on).
//
// Alignment padding is explicit zero bytes emitted by the writer and skipped
// by the reader; both sides derive the padding purely from the current
// stream offset, so no padding metadata appears on the wire.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <vector>

#include "common/buffer.hpp"
#include "common/endian.hpp"
#include "common/vls.hpp"

namespace bxsoap::xbs {

/// Returns the number of pad bytes needed to advance `offset` to the next
/// multiple of `alignment` (a power of two).
constexpr std::size_t padding_for(std::size_t offset, std::size_t alignment) {
  return (alignment - (offset % alignment)) % alignment;
}

/// Packed arrays of at least this many bytes are borrowed, not copied, by
/// a Writer in borrowing mode: far above the size where one more iovec in
/// a gathered send costs as much as copying the bytes.
inline constexpr std::size_t kBorrowMinBytes = 16 * 1024;

/// Serializes fundamental values into a growing byte stream.
class Writer {
 public:
  explicit Writer(ByteOrder order = host_byte_order()) : order_(order) {}

  /// Adopt a ByteWriter that may already hold bytes (e.g. a reserved frame
  /// header in a pooled buffer). The XBS stream origin is wherever the
  /// adopted writer currently ends, so array alignment stays relative to the
  /// *payload* start — wire-identical to encoding into a fresh buffer.
  Writer(ByteOrder order, ByteWriter out)
      : order_(order), out_(std::move(out)), origin_(out_.size()) {}

  ByteOrder order() const noexcept { return order_; }
  std::size_t offset() const noexcept {
    return base_ + (out_.size() - origin_) + borrowed_;
  }

  /// Borrowing mode: from here on a packed array of at least
  /// kBorrowMinBytes that needs no byte swap is not copied. Its pad goes
  /// into the buffer as usual; the array is appended to `*runs` as a
  /// BorrowedRun at the buffer's current end, pointing at the caller's
  /// storage. Logical offsets count borrowed bytes, so every later pad and
  /// patch_at() comes out as in a contiguous encode: the buffer with the
  /// runs spliced in (for_each_piece) is the contiguous stream. The runs
  /// are valid while the arrays they point at are. Not combinable with
  /// drain().
  void borrow_into(std::vector<BorrowedRun>* runs) noexcept { runs_ = runs; }

  /// Bytes currently buffered past the origin (what a drain would return).
  std::size_t buffered() const noexcept { return out_.size() - origin_; }

  /// Logical offset of the first byte still in the buffer: everything
  /// before it has been drained and can no longer be patched in place.
  std::size_t stream_base() const noexcept { return base_; }

  /// Chunk-mode flush: hand back the buffered bytes and continue writing
  /// into `fresh` (an empty, typically pooled, vector). Logical positions
  /// — offset(), patch_at() — keep counting across the drain, so the
  /// stream reads as one contiguous sequence even though its storage left
  /// in pieces. Only meaningful on a writer whose origin is 0 (no adopted
  /// header prefix); patch_at() on a drained offset is out of bounds.
  std::vector<std::uint8_t> drain(std::vector<std::uint8_t> fresh = {}) {
    if (runs_ != nullptr) throw EncodeError("drain of a borrowing writer");
    base_ += out_.size() - origin_;
    std::vector<std::uint8_t> full = out_.take();
    fresh.clear();
    out_ = ByteWriter(std::move(fresh));
    origin_ = 0;
    return full;
  }

  /// Write a scalar without alignment (BXSA stores scalar frame values
  /// unaligned; only array payloads are aligned).
  template <typename T>
  void put_unaligned(T v) {
    out_.write(v, order_);
  }

  /// Write a scalar aligned to sizeof(T) from the stream origin.
  template <typename T>
  void put(T v) {
    align_to(sizeof(T));
    out_.write(v, order_);
  }

  void put_u8(std::uint8_t v) { out_.write_u8(v); }

  void put_vls(std::uint64_t v) { vls_write(out_, v); }

  void put_raw(std::span<const std::uint8_t> bytes) { out_.write_bytes(bytes); }
  void put_raw(const void* data, std::size_t n) { out_.write_bytes(data, n); }

  /// VLS length followed by the bytes of `s`.
  void put_string(std::string_view s) {
    put_vls(s.size());
    out_.write_string(s);
  }

  /// Write a packed 1-D array: pads to alignment sizeof(T), then the items.
  /// The count is NOT written here; BXSA stores it in the frame header.
  template <typename T>
  void put_array(std::span<const T> values) {
    align_to(sizeof(T));
    if (runs_ != nullptr && values.size_bytes() >= kBorrowMinBytes &&
        (sizeof(T) == 1 || order_ == host_byte_order())) {
      runs_->push_back(
          {out_.size(),
           {reinterpret_cast<const std::uint8_t*>(values.data()),
            values.size_bytes()}});
      borrowed_ += values.size_bytes();
      borrowed_ends_.push_back({offset(), borrowed_});
      return;
    }
    out_.write_array(values, order_);
  }

  void align_to(std::size_t alignment) {
    out_.write_padding(padding_for(offset(), alignment));
  }

  /// Backpatch at a stream-relative offset (see offset()). The offset must
  /// still be buffered: patching bytes that a drain() already shipped is a
  /// caller bug (the chunked encoder records a PatchRecord instead).
  void patch_at(std::size_t rel_offset, const void* data, std::size_t n) {
    if (rel_offset < base_) {
      throw EncodeError("patch target was already drained");
    }
    // Runs that end at or before the target are not in the buffer.
    const auto after = std::upper_bound(
        borrowed_ends_.begin(), borrowed_ends_.end(), rel_offset,
        [](std::size_t off, const BorrowedEnd& e) { return off < e.end; });
    const std::size_t skipped =
        after == borrowed_ends_.begin() ? 0 : std::prev(after)->borrowed;
    out_.patch_bytes(origin_ + (rel_offset - base_) - skipped, data, n);
  }

  std::vector<std::uint8_t> take() { return out_.take(); }
  /// Release the underlying ByteWriter, header prefix and all.
  ByteWriter take_writer() { return std::move(out_); }
  std::span<const std::uint8_t> bytes() const { return out_.bytes(); }
  ByteWriter& raw_writer() { return out_; }

 private:
  /// A borrowed run's logical end, and the bytes borrowed up to it.
  struct BorrowedEnd {
    std::size_t end;
    std::size_t borrowed;
  };

  ByteOrder order_;
  ByteWriter out_;
  std::size_t origin_ = 0;
  std::size_t base_ = 0;  // logical offset of the buffer's first byte
  std::vector<BorrowedRun>* runs_ = nullptr;  // borrowing mode when set
  std::size_t borrowed_ = 0;                  // bytes borrowed so far
  std::vector<BorrowedEnd> borrowed_ends_;
};

/// Deserializes values written by Writer. The reader is told the byte order
/// per value group (BXSA frames may change order frame-to-frame).
class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> data) : in_(data) {}

  std::size_t offset() const noexcept { return in_.position(); }
  std::size_t remaining() const noexcept { return in_.remaining(); }
  bool at_end() const noexcept { return in_.at_end(); }

  template <typename T>
  T get_unaligned(ByteOrder order) {
    return in_.read<T>(order);
  }

  template <typename T>
  T get(ByteOrder order) {
    align_to(sizeof(T));
    return in_.read<T>(order);
  }

  std::uint8_t get_u8() { return in_.read_u8(); }

  std::uint64_t get_vls() { return vls_read(in_); }

  std::string get_string() {
    const auto n = get_vls();
    return in_.read_string(static_cast<std::size_t>(n));
  }

  /// Non-owning get_string for names that are immediately interned; valid
  /// only while the underlying buffer lives.
  std::string_view get_string_view() {
    const auto n = get_vls();
    return in_.read_string_view(static_cast<std::size_t>(n));
  }

  std::span<const std::uint8_t> get_raw(std::size_t n) {
    return in_.read_bytes(n);
  }

  template <typename T>
  std::vector<T> get_array(std::size_t count, ByteOrder order) {
    align_to(sizeof(T));
    return in_.read_array<T>(count, order);
  }

  /// Align and return a non-owning view of the packed payload without
  /// copying (the memory-mapped-I/O path: valid only while the underlying
  /// buffer lives, and only byte-order-correct when order == host).
  template <typename T>
  std::span<const T> view_array(std::size_t count) {
    align_to(sizeof(T));
    // Divide, don't multiply: count * sizeof(T) can wrap size_t on a
    // hostile count and sail past the bounds check inside read_bytes.
    if (count > in_.remaining() / sizeof(T)) {
      throw DecodeError("array count exceeds remaining input");
    }
    auto raw = in_.read_bytes(count * sizeof(T));
    return {reinterpret_cast<const T*>(raw.data()), count};
  }

  void align_to(std::size_t alignment) {
    in_.skip(padding_for(in_.position(), alignment));
  }

  void skip(std::size_t n) { in_.skip(n); }
  void seek(std::size_t pos) { in_.seek(pos); }

 private:
  ByteReader in_;
};

}  // namespace bxsoap::xbs
