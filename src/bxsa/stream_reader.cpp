#include "bxsa/stream_reader.hpp"

namespace bxsoap::bxsa {

using namespace bxsoap::xdm;

StreamReader::StreamReader(std::span<const std::uint8_t> bytes) : c_(bytes) {}

namespace {

/// Copies the header into the event, resolving names as they come.
struct EventHeader : HeaderSink {
  StreamEvent& ev;
  NsScopes& scopes;
  ByteOrder order;

  void decl_count(std::uint64_t n) {
    ev.namespaces.reserve(static_cast<std::size_t>(n));
  }
  void decl(const NsView& d) {
    ev.namespaces.push_back({std::string(d.prefix), std::string(d.uri)});
    scopes.declare(d);
  }
  void name(const QNameRef& q) { ev.name = scopes.qname(q); }
  void attr_count(std::uint64_t n) {
    ev.attributes.reserve(static_cast<std::size_t>(n));
  }
  void attr(const QNameRef& q, const RawValue& v) {
    ev.attributes.emplace_back(scopes.qname(q), to_scalar(v, order));
  }
};

}  // namespace

void StreamReader::read_element_header(StreamEvent& ev, ByteOrder order) {
  ns_.push();
  EventHeader sink{{}, ev, ns_, order};
  c_.header(sink);
}

StreamEvent StreamReader::read_frame() {
  const FrameInfo f = c_.open();
  StreamEvent ev;
  switch (f.type) {
    case FrameType::kDocument:
      ev.kind = EventKind::kStartDocument;
      scopes_.push_back({c_.child_count(), f});
      return ev;
    case FrameType::kComponentElement:
      ev.kind = EventKind::kStartElement;
      read_element_header(ev, f.order);
      scopes_.push_back({c_.child_count(), f});
      return ev;
    case FrameType::kLeafElement: {
      ev.kind = EventKind::kLeaf;
      read_element_header(ev, f.order);
      const RawValue v = c_.value();
      ev.atom = v.type;
      ev.value = to_scalar(v, f.order);
      ns_.pop();
      break;
    }
    case FrameType::kArrayElement: {
      ev.kind = EventKind::kArray;
      read_element_header(ev, f.order);
      const ArrayTail tail = c_.array_tail();
      // Same rule as the tree decoder: bool items have no packed model.
      if (tail.type == AtomType::kBool) {
        throw DecodeError("stream: array frame with non-packed item type");
      }
      ev.array.type = tail.type;
      ev.array.item_name = std::string(tail.item_name);
      ev.array.count = tail.count;
      ev.array.payload = tail.payload;
      ev.array.order = f.order;
      ns_.pop();
      break;
    }
    case FrameType::kCharacterData:
      ev.kind = EventKind::kText;
      ev.text = c_.string();
      break;
    case FrameType::kComment:
      ev.kind = EventKind::kComment;
      ev.text = c_.string();
      break;
    case FrameType::kPI:
      ev.kind = EventKind::kPI;
      ev.pi_target = c_.string();
      ev.text = c_.string();
      break;
  }
  c_.close(f);
  return ev;
}

std::optional<StreamEvent> StreamReader::next() {
  if (finished_) return std::nullopt;

  // Close any scope whose children are exhausted.
  if (started_ && !scopes_.empty() && scopes_.back().remaining_children == 0) {
    const Scope scope = scopes_.back();
    scopes_.pop_back();
    c_.close(scope.frame);
    StreamEvent ev;
    if (scope.frame.type == FrameType::kDocument) {
      ev.kind = EventKind::kEndDocument;
    } else {
      ev.kind = EventKind::kEndElement;
      ns_.pop();
    }
    if (scopes_.empty()) {
      finished_ = true;
      if (!c_.at_end()) {
        throw DecodeError("stream: trailing bytes after top-level frame");
      }
    } else {
      --scopes_.back().remaining_children;
    }
    return ev;
  }

  if (started_ && scopes_.empty()) {
    finished_ = true;
    return std::nullopt;
  }

  StreamEvent ev = read_frame();
  started_ = true;
  const bool opened_scope = ev.kind == EventKind::kStartDocument ||
                            ev.kind == EventKind::kStartElement;
  if (!opened_scope) {
    if (scopes_.empty()) {
      // A single leaf/array/text top-level frame is the whole stream.
      finished_ = true;
      if (!c_.at_end()) {
        throw DecodeError("stream: trailing bytes after top-level frame");
      }
    } else {
      --scopes_.back().remaining_children;
    }
  }
  return ev;
}

void StreamReader::skip_children() {
  if (scopes_.empty()) {
    throw DecodeError("stream: skip_children with no open element");
  }
  // Each child frame is stepped over with one prefix+size read.
  Scope& scope = scopes_.back();
  while (scope.remaining_children > 0) {
    c_.skip_frame();
    --scope.remaining_children;
  }
}

}  // namespace bxsoap::bxsa
