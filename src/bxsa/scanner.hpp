// Accelerated sequential access over raw BXSA bytes.
//
// The Size field in every Common Frame Prefix lets a consumer skip a frame
// in O(1) without parsing its contents — "we can sequentially scan frames
// without fully parsing all parts of the document". The scanner exposes
// exactly that: iterate sibling frames, descend into one child, and pull a
// zero-copy view of an array payload, all without building a bXDM tree.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "bxsa/cursor.hpp"
#include "xdm/atom.hpp"

namespace bxsoap::bxsa {

/// Non-owning scanner; the buffer must outlive it. All offsets are relative
/// to the start of the buffer (the document's alignment origin).
class FrameScanner {
 public:
  explicit FrameScanner(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  /// Frame starting at `offset`; throws DecodeError on malformed prefixes.
  FrameInfo frame_at(std::size_t offset) const;

  /// The frame following `f` (its next sibling when both share a parent),
  /// or nullopt at `limit` (usually the parent's end()).
  std::optional<FrameInfo> next(const FrameInfo& f, std::size_t limit) const;

  /// First child frame of a Document or ComponentElement frame, skipping
  /// the header WITHOUT resolving namespaces or attribute values; nullopt
  /// when it has no children.
  std::optional<FrameInfo> first_child(const FrameInfo& parent) const;

  /// Child count of a Document/ComponentElement frame (reads one VLS).
  std::size_t child_count(const FrameInfo& parent) const;

  /// The n-th (0-based) child, skipping n siblings in O(n) frames.
  std::optional<FrameInfo> child(const FrameInfo& parent, std::size_t n) const;

  /// Local name of an element frame (no namespace resolution).
  std::string element_local_name(const FrameInfo& f) const;

  /// For an ArrayElement frame: item type, count and a zero-copy view of
  /// the packed payload (valid while the buffer lives; byte-order-correct
  /// only when the frame's order matches the host's).
  struct ArrayView {
    xdm::AtomType type;
    std::size_t count;
    std::span<const std::uint8_t> payload;
  };
  ArrayView array_view(const FrameInfo& f) const;

 private:
  /// A cursor just past the header of element frame `f`.
  Cursor past_header(const FrameInfo& f) const;
  /// A cursor at the child count of Document/ComponentElement `parent`.
  Cursor at_children(const FrameInfo& parent) const;

  std::span<const std::uint8_t> bytes_;
};

}  // namespace bxsoap::bxsa
