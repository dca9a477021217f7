// Growable byte sink and bounds-checked byte source.
//
// ByteWriter/ByteReader are the lowest layer under XBS: they move raw bytes
// with explicit byte order but know nothing about frames or alignment.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/endian.hpp"
#include "common/error.hpp"

namespace bxsoap {

/// Appends bytes to an internal growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Adopt an existing buffer (e.g. one recycled from a BufferPool) and
  /// append to it. The buffer keeps whatever bytes it already holds.
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void write_u8(std::uint8_t v) { buf_.push_back(v); }

  template <typename T>
  void write(T v, ByteOrder order) {
    static_assert(std::is_arithmetic_v<T>);
    const std::size_t off = buf_.size();
    buf_.resize(off + sizeof(T));
    store(v, order, buf_.data() + off);
  }

  void write_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  void write_bytes(std::span<const std::uint8_t> bytes) {
    write_bytes(bytes.data(), bytes.size());
  }

  void write_string(std::string_view s) { write_bytes(s.data(), s.size()); }

  /// Append an array of arithmetic values in the given byte order. When the
  /// order matches the host this is a single memcpy (the packed-array fast
  /// path the paper relies on for ArrayElement).
  template <typename T>
  void write_array(std::span<const T> values, ByteOrder order) {
    static_assert(std::is_arithmetic_v<T>);
    if (values.empty()) return;
    const std::size_t off = buf_.size();
    buf_.resize(off + values.size_bytes());
    std::memcpy(buf_.data() + off, values.data(), values.size_bytes());
    if (order != host_byte_order()) {
      byteswap_array(reinterpret_cast<T*>(buf_.data() + off), values.size());
    }
  }

  /// Append `n` zero bytes (used for alignment padding).
  void write_padding(std::size_t n) { buf_.resize(buf_.size() + n, 0); }

  /// Append `n` zero bytes for the caller to fill in place, e.g. a text
  /// encoder writing through a cursor and truncate()-ing the unused tail.
  /// The pointer is valid until the next call that grows the writer.
  std::uint8_t* extend(std::size_t n) {
    const std::size_t off = buf_.size();
    buf_.resize(off + n);
    return buf_.data() + off;
  }

  /// Drop everything written after `size` bytes (used to abandon a
  /// speculative write, e.g. a compressed frame body that did not end up
  /// smaller than the plain one). Growing is not allowed.
  void truncate(std::size_t size) {
    if (size > buf_.size()) throw EncodeError("truncate past end");
    buf_.resize(size);
  }

  /// Overwrite previously written bytes at `offset` (used to backpatch frame
  /// sizes once a frame body is complete).
  void patch_bytes(std::size_t offset, const void* data, std::size_t n) {
    // offset + n can wrap size_t; compare subtractively instead.
    if (offset > buf_.size() || n > buf_.size() - offset) {
      throw EncodeError("patch out of range");
    }
    std::memcpy(buf_.data() + offset, data, n);
  }

  std::size_t size() const noexcept { return buf_.size(); }
  std::span<const std::uint8_t> bytes() const noexcept {
    return {buf_.data(), buf_.size()};
  }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  const std::vector<std::uint8_t>& vec() const noexcept { return buf_; }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads bytes from a non-owning view with bounds checking. Every decode
/// failure throws DecodeError; the reader never reads past the view.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data, size) {}

  std::size_t position() const noexcept { return pos_; }
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  bool at_end() const noexcept { return pos_ == data_.size(); }

  void seek(std::size_t pos) {
    if (pos > data_.size()) throw DecodeError("seek out of range");
    pos_ = pos;
  }

  void skip(std::size_t n) {
    require(n);
    pos_ += n;
  }

  std::uint8_t read_u8() {
    require(1);
    return data_[pos_++];
  }

  std::uint8_t peek_u8() const {
    if (remaining() < 1) throw DecodeError("peek past end");
    return data_[pos_];
  }

  template <typename T>
  T read(ByteOrder order) {
    static_assert(std::is_arithmetic_v<T>);
    require(sizeof(T));
    T v = load<T>(data_.data() + pos_, order);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> read_bytes(std::size_t n) {
    require(n);
    auto s = data_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  std::string read_string(std::size_t n) {
    auto s = read_bytes(n);
    return std::string(reinterpret_cast<const char*>(s.data()), s.size());
  }

  /// Non-owning variant of read_string for callers that immediately intern
  /// or compare the name: valid only while the underlying buffer lives.
  std::string_view read_string_view(std::size_t n) {
    auto s = read_bytes(n);
    return {reinterpret_cast<const char*>(s.data()), s.size()};
  }

  /// Read `count` arithmetic values written with write_array.
  template <typename T>
  std::vector<T> read_array(std::size_t count, ByteOrder order) {
    static_assert(std::is_arithmetic_v<T>);
    if (count > remaining() / sizeof(T)) {
      throw DecodeError("array count exceeds remaining bytes");
    }
    std::vector<T> out(count);
    if (count != 0) {
      std::memcpy(out.data(), data_.data() + pos_, count * sizeof(T));
    }
    pos_ += count * sizeof(T);
    if (order != host_byte_order()) {
      byteswap_array(out.data(), out.size());
    }
    return out;
  }

 private:
  void require(std::size_t n) const {
    if (remaining() < n) {
      throw DecodeError("unexpected end of input (need " + std::to_string(n) +
                        " bytes, have " + std::to_string(remaining()) + ")");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace bxsoap
