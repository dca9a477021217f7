// StreamReader — a pull-style (StAX-like) reader over BXSA bytes.
//
// XBS is a *streaming* serializer and the frame format was designed so
// consumers need not materialize a tree: this reader walks the frame
// sequence and emits one event per frame boundary, resolving namespaces
// and typed values on the fly. Array payloads are surfaced as zero-copy
// views into the input buffer.
//
// Event order for a document:
//   StartDocument, (events for each child)*, EndDocument
// and for a component element:
//   StartElement, (events for each child)*, EndElement.
// LeafElement / ArrayElement / Text / PI / Comment are single events.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bxsa/cursor.hpp"
#include "common/endian.hpp"
#include "xdm/node.hpp"

namespace bxsoap::bxsa {

enum class EventKind : std::uint8_t {
  kStartDocument,
  kEndDocument,
  kStartElement,  // component element
  kEndElement,
  kLeaf,
  kArray,
  kText,
  kPI,
  kComment,
};

/// A zero-copy view of a packed array payload.
struct StreamArray {
  xdm::AtomType type = xdm::AtomType::kString;
  std::size_t count = 0;
  std::span<const std::uint8_t> payload;  // count * atom_wire_size bytes
  ByteOrder order = ByteOrder::kLittle;
  std::string item_name;

  /// Copy (and byte-swap if needed) into a typed vector.
  template <xdm::PackedAtomic T>
  std::vector<T> materialize() const {
    if (xdm::AtomTraits<T>::kType != type) {
      throw DecodeError("stream array holds a different item type");
    }
    std::vector<T> out(count);
    if (!payload.empty()) {
      std::memcpy(out.data(), payload.data(), payload.size());
    }
    if (order != host_byte_order()) {
      byteswap_array(out.data(), out.size());
    }
    return out;
  }
};

struct StreamEvent {
  EventKind kind = EventKind::kEndDocument;

  // Element events (start/leaf/array):
  xdm::QName name;
  std::vector<xdm::NamespaceDecl> namespaces;  // declared on this frame
  std::vector<xdm::Attribute> attributes;

  // kLeaf:
  xdm::AtomType atom = xdm::AtomType::kString;
  xdm::ScalarValue value;

  // kArray:
  StreamArray array;

  // kText / kComment: content; kPI: target + data.
  std::string text;
  std::string pi_target;
};

class StreamReader {
 public:
  /// The buffer must outlive the reader (array views point into it).
  explicit StreamReader(std::span<const std::uint8_t> bytes);

  /// Pull the next event; std::nullopt when the top-level frame is done.
  /// Throws DecodeError on malformed input.
  std::optional<StreamEvent> next();

  /// Depth of open StartDocument/StartElement scopes.
  std::size_t depth() const noexcept { return scopes_.size(); }

  /// Skip the remainder of the current element's children in O(frames
  /// skipped headers); the next event will be its EndElement/EndDocument.
  void skip_children();

 private:
  struct Scope {
    std::uint64_t remaining_children;
    FrameInfo frame;  // a Document or ComponentElement frame
  };

  StreamEvent read_frame();
  void read_element_header(StreamEvent& ev, ByteOrder order);

  Cursor c_;
  std::vector<Scope> scopes_;
  NsScopes ns_;
  bool started_ = false;
  bool finished_ = false;
};

}  // namespace bxsoap::bxsa
