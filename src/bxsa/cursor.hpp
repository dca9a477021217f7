// BXSA frame cursor: the one reader of the frame grammar in frame.hpp.
//
// The tree decoder, the pull StreamReader, the lazy FrameScanner and the
// v3 dictionary transform all drive this cursor, so the grammar — and every
// check on a length or count a peer declares — is written exactly once:
//
//   * open()/close(): prefix byte and Size (Size <= remaining input), the
//     nesting cap, and "the body was fully consumed";
//   * header(): namespace declarations and attributes, each count refused
//     BEFORE it can size an allocation (a declaration costs >= 2 bytes, an
//     attribute >= 3);
//   * qname_ref(), value(), array_tail() (the count guard divides instead
//     of multiplying, so a hostile count cannot wrap size_t);
//   * symbol(): the single site that reads a symbol String — namespace
//     prefixes and URIs, local names, array item names. The Symbols policy
//     decides what a symbol looks like on the wire (a plain String, or a
//     dictionary-coded DString, see dict.cpp).
//
// Everything is read into views of the input: the cursor never allocates.
// Two optional layers sit on top for readers that build bXDM values:
// to_scalar() decodes a typed value (and insists a bool byte is 0 or 1),
// and NsScopes resolves QNameRefs against the open frames' symbol tables.
// A skipping reader (FrameScanner) and a re-encoding one (the dictionary
// transform) use neither.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bxsa/frame.hpp"
#include "common/endian.hpp"
#include "common/error.hpp"
#include "xbs/xbs.hpp"
#include "xdm/atom.hpp"
#include "xdm/qname.hpp"

namespace bxsoap::bxsa {

/// Nesting bound, counted in open frames with leaves included: readers
/// recurse or keep a scope per open frame, so hostile input must not be
/// able to exhaust the stack.
inline constexpr std::size_t kMaxFrameDepth = 1024;

/// Location and shape of one frame within a BXSA buffer.
struct FrameInfo {
  FrameType type = FrameType::kDocument;
  ByteOrder order = ByteOrder::kLittle;
  std::size_t frame_offset = 0;  // offset of the prefix byte
  std::size_t body_offset = 0;   // offset just past the Size field
  std::size_t body_size = 0;
  std::size_t end() const { return body_offset + body_size; }
};

/// A QNameRef as it sits on the wire (see NsScopes for resolution).
struct QNameRef {
  std::uint64_t depth = 0;  // 0 = no namespace
  std::uint64_t index = 0;  // into that frame's symbol table (depth != 0)
  std::string_view local;
};

/// One symbol-table entry.
struct NsView {
  std::string_view prefix;
  std::string_view uri;
};

/// A typed value as it sits on the wire: for kString the content bytes
/// (length stripped), otherwise the fixed-width scalar in the frame's byte
/// order.
struct RawValue {
  xdm::AtomType type = xdm::AtomType::kString;
  std::span<const std::uint8_t> bytes;
};

/// The tail of an ArrayElement frame.
struct ArrayTail {
  xdm::AtomType type = xdm::AtomType::kString;  // fixed-width on the wire
  std::string_view item_name;
  std::size_t count = 0;
  std::span<const std::uint8_t> payload;  // aligned, count * width bytes
};

/// Receives an element header in wire order. A reader derives from it and
/// hides the calls it cares about; the rest stay no-ops.
struct HeaderSink {
  void decl_count(std::uint64_t) {}
  void decl(const NsView&) {}
  void name(const QNameRef&) {}
  void attr_count(std::uint64_t) {}
  void attr(const QNameRef&, const RawValue&) {}
};

/// Symbol policy of a plain BXSA stream: a symbol is a String.
struct PlainSymbols {
  template <typename Cursor>
  std::string_view operator()(Cursor& c) const {
    return c.string();
  }
};

template <typename Symbols = PlainSymbols>
class BasicCursor {
 public:
  explicit BasicCursor(std::span<const std::uint8_t> bytes,
                       Symbols symbols = {})
      : r_(bytes), symbols_(symbols) {}

  bool at_end() const noexcept { return r_.at_end(); }
  void seek(std::size_t pos) { r_.seek(pos); }

  /// Reads a Common Frame Prefix and Size; the body is everything up to
  /// the returned frame's end().
  FrameInfo open() {
    if (depth_ >= kMaxFrameDepth) {
      throw DecodeError("frame nesting exceeds the depth limit of " +
                        std::to_string(kMaxFrameDepth));
    }
    FrameInfo f;
    f.frame_offset = r_.offset();
    const FramePrefix prefix = parse_prefix_byte(r_.get_u8());
    const std::uint64_t body = r_.get_vls();
    if (body > r_.remaining()) {
      throw DecodeError("frame size " + std::to_string(body) +
                        " exceeds remaining input");
    }
    f.type = prefix.type;
    f.order = prefix.order;
    f.body_offset = r_.offset();
    f.body_size = static_cast<std::size_t>(body);
    ++depth_;
    return f;
  }

  /// Ends a frame opened by open(); its body must be fully consumed.
  void close(const FrameInfo& f) {
    if (r_.offset() != f.end()) {
      throw DecodeError("frame body not fully consumed (at " +
                        std::to_string(r_.offset()) + ", expected " +
                        std::to_string(f.end()) + ")");
    }
    --depth_;
  }

  /// Steps over one whole frame without parsing its body.
  void skip_frame() {
    const FrameInfo f = open();
    r_.seek(f.end());
    close(f);
  }

  /// Child count of a Document or ComponentElement frame.
  std::uint64_t child_count() { return r_.get_vls(); }

  /// The element header shared by component, leaf and array frames.
  template <typename Sink>
  void header(Sink& sink) {
    const std::uint64_t n1 = r_.get_vls();
    if (n1 > r_.remaining() / 2) {
      throw DecodeError("namespace decl count " + std::to_string(n1) +
                        " exceeds remaining input");
    }
    sink.decl_count(n1);
    for (std::uint64_t i = 0; i < n1; ++i) {
      NsView d;
      d.prefix = symbol();
      d.uri = symbol();
      sink.decl(d);
    }
    sink.name(qname_ref());
    const std::uint64_t n2 = r_.get_vls();
    if (n2 > r_.remaining() / 3) {
      throw DecodeError("attribute count " + std::to_string(n2) +
                        " exceeds remaining input");
    }
    sink.attr_count(n2);
    for (std::uint64_t i = 0; i < n2; ++i) {
      const QNameRef name = qname_ref();
      sink.attr(name, value());
    }
  }

  QNameRef qname_ref() {
    QNameRef q;
    q.depth = r_.get_vls();
    if (q.depth != 0) q.index = r_.get_vls();
    q.local = symbol();
    return q;
  }

  /// An atom code followed by its value (attributes and leaves).
  RawValue value() {
    const xdm::AtomType t = atom_code();
    if (t == xdm::AtomType::kString) return {t, string_bytes()};
    return {t, r_.get_raw(xdm::atom_wire_size(t))};
  }

  ArrayTail array_tail() {
    ArrayTail a;
    a.type = atom_code();
    const std::size_t item = xdm::atom_wire_size(a.type);
    if (item == 0) throw DecodeError("array frame with variable-width items");
    a.item_name = symbol();
    const std::uint64_t count = r_.get_vls();
    r_.align_to(item);
    // Divide, don't multiply: count * item can wrap size_t on a hostile
    // count and defeat get_raw's own bounds check.
    if (count > r_.remaining() / item) {
      throw DecodeError("array count exceeds remaining input");
    }
    a.count = static_cast<std::size_t>(count);
    a.payload = r_.get_raw(a.count * item);
    return a;
  }

  /// A String that is content (text, comment, PI, string value).
  std::string_view string() {
    const auto b = string_bytes();
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }

  /// A symbol String, in the form the Symbols policy reads.
  std::string_view symbol() { return symbols_(*this); }

  /// A bare VLS integer (a Symbols policy's tag).
  std::uint64_t vls() { return r_.get_vls(); }

 private:
  xdm::AtomType atom_code() {
    const std::uint8_t code = r_.get_u8();
    if (code > static_cast<std::uint8_t>(xdm::AtomType::kBool)) {
      throw DecodeError("unknown atom type code " + std::to_string(code));
    }
    return static_cast<xdm::AtomType>(code);
  }

  std::span<const std::uint8_t> string_bytes() {
    const std::uint64_t n = r_.get_vls();
    if (n > r_.remaining()) {
      throw DecodeError("string length exceeds remaining input");
    }
    return r_.get_raw(static_cast<std::size_t>(n));
  }

  xbs::Reader r_;
  Symbols symbols_;
  std::size_t depth_ = 0;  // frames opened and not yet closed
};

using Cursor = BasicCursor<>;

/// The typed layer: a RawValue as a bXDM scalar in `order`.
inline xdm::ScalarValue to_scalar(const RawValue& v, ByteOrder order) {
  const std::uint8_t* p = v.bytes.data();
  return xdm::visit_atom_type(
      v.type, [&]<typename T>(std::type_identity<T>) -> xdm::ScalarValue {
        if constexpr (std::is_same_v<T, std::string>) {
          return std::string(reinterpret_cast<const char*>(p), v.bytes.size());
        } else if constexpr (std::is_same_v<T, bool>) {
          if (*p > 1) throw DecodeError("boolean value byte must be 0 or 1");
          return *p == 1;
        } else {
          return load<T>(p, order);
        }
      });
}

/// The resolving layer: the symbol tables of the open element frames,
/// innermost last, as views into the input (which must outlive them).
class NsScopes {
 public:
  /// Opens an element frame's (initially empty) table.
  void push() { starts_.push_back(entries_.size()); }
  /// Appends to the innermost table.
  void declare(const NsView& d) { entries_.push_back(d); }
  void pop() {
    entries_.resize(starts_.back());
    starts_.pop_back();
  }

  /// Resolves `ref`: depth d > 0 names the table d-1 element frames up
  /// (1 = the innermost).
  xdm::QName qname(const QNameRef& ref) const {
    if (ref.depth == 0) return xdm::QName(std::string(ref.local));
    if (ref.depth > starts_.size()) {
      throw DecodeError("namespace scope depth " + std::to_string(ref.depth) +
                        " exceeds open-element depth " +
                        std::to_string(starts_.size()));
    }
    const std::size_t frame = starts_.size() - ref.depth;
    const std::size_t begin = starts_[frame];
    const std::size_t size =
        (frame + 1 < starts_.size() ? starts_[frame + 1] : entries_.size()) -
        begin;
    if (ref.index >= size) {
      throw DecodeError("namespace index " + std::to_string(ref.index) +
                        " out of range for symbol table of size " +
                        std::to_string(size));
    }
    const NsView& d = entries_[begin + ref.index];
    return xdm::QName(std::string(d.uri), std::string(ref.local),
                      std::string(d.prefix));
  }

 private:
  std::vector<NsView> entries_;
  std::vector<std::size_t> starts_;  // first entry of each open table
};

}  // namespace bxsoap::bxsa
