#include "bxsa/decoder.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "bxsa/cursor.hpp"
#include "obs/metrics.hpp"

namespace bxsoap::bxsa {

using namespace bxsoap::xdm;

namespace {

class Decoder {
 public:
  Decoder(std::span<const std::uint8_t> bytes, obs::CodecStats* stats,
          const SharedBuffer* wire = nullptr)
      : c_(bytes), stats_(stats), wire_(wire) {}

  NodePtr read_node() {
    const FrameInfo f = c_.open();
    if (stats_ != nullptr) {
      stats_->frames_by_type[static_cast<std::size_t>(f.type)].add();
    }
    NodePtr node = read_body(f);
    c_.close(f);
    return node;
  }

  bool at_end() const { return c_.at_end(); }

 private:
  NodePtr read_body(const FrameInfo& f) {
    switch (f.type) {
      case FrameType::kDocument: {
        auto doc = std::make_unique<Document>();
        const std::uint64_t n = c_.child_count();
        for (std::uint64_t i = 0; i < n; ++i) {
          doc->add_child(read_node());
        }
        return doc;
      }
      case FrameType::kComponentElement: {
        auto e = std::make_unique<Element>(QName());
        read_header(*e, f.order);
        const std::uint64_t n = c_.child_count();
        for (std::uint64_t i = 0; i < n; ++i) {
          e->add_child(read_node());
        }
        scopes_.pop();
        return e;
      }
      case FrameType::kLeafElement:
        return read_leaf(f.order);
      case FrameType::kArrayElement:
        return read_array(f.order);
      case FrameType::kCharacterData:
        return std::make_unique<TextNode>(std::string(c_.string()));
      case FrameType::kComment:
        return std::make_unique<CommentNode>(std::string(c_.string()));
      case FrameType::kPI: {
        std::string target(c_.string());
        std::string data(c_.string());
        return std::make_unique<PINode>(std::move(target), std::move(data));
      }
    }
    throw DecodeError("unreachable frame type");
  }

  /// Interns the header into the element, resolving names as they come.
  struct HeaderReader : HeaderSink {
    ElementBase& e;
    NsScopes& scopes;
    ByteOrder order;

    void decl(const NsView& d) {
      e.declare_namespace(std::string(d.prefix), std::string(d.uri));
      scopes.declare(d);
    }
    void name(const QNameRef& q) { e.set_name(scopes.qname(q)); }
    void attr(const QNameRef& q, const RawValue& v) {
      e.add_attribute(scopes.qname(q), to_scalar(v, order));
    }
  };

  /// Reads the shared header into `e` and pushes the frame's symbol table
  /// (the caller pops it when the frame ends).
  void read_header(ElementBase& e, ByteOrder order) {
    scopes_.push();
    HeaderReader sink{{}, e, scopes_, order};
    c_.header(sink);
  }

  /// Moves what read_header() collected in `holder` onto the typed node.
  static NodePtr finish(std::unique_ptr<ElementBase> node, Element&& holder) {
    for (const auto& d : holder.namespaces()) {
      node->declare_namespace(d.prefix, d.uri);
    }
    node->attributes() = std::move(holder.attributes());
    return node;
  }

  NodePtr read_leaf(ByteOrder order) {
    Element header{QName()};
    read_header(header, order);
    const RawValue raw = c_.value();
    scopes_.pop();
    ScalarValue v = to_scalar(raw, order);
    return std::visit(
        [&](auto& x) {
          using T = std::decay_t<decltype(x)>;
          return finish(
              std::make_unique<LeafElement<T>>(header.name(), std::move(x)),
              std::move(header));
        },
        v);
  }

  NodePtr read_array(ByteOrder order) {
    Element header{QName()};
    read_header(header, order);
    const ArrayTail tail = c_.array_tail();
    scopes_.pop();
    return visit_packed_type(tail.type, [&]<typename T>(std::type_identity<T>) {
      auto arr = std::make_unique<ArrayElement<T>>(header.name());
      arr->set_item_name(std::string(tail.item_name));
      set_items<T>(*arr, tail, order);
      return finish(std::move(arr), std::move(header));
    });
  }

  /// Array payload: a zero-copy view into the wire buffer when a lifetime
  /// owner is present, the byte order already matches the host, and the
  /// payload lands machine-aligned; otherwise one memcpy (+ swap).
  template <PackedAtomic T>
  void set_items(ArrayElement<T>& arr, const ArrayTail& tail,
                 ByteOrder order) {
    const std::size_t count = tail.count;
    const auto raw = tail.payload;
    // XBS aligns relative to the stream origin; the buffer's own base
    // address decides whether a native T* may point at the payload.
    const bool aligned =
        reinterpret_cast<std::uintptr_t>(raw.data()) % alignof(T) == 0;
    if (wire_ != nullptr && count != 0 && order == host_byte_order() &&
        aligned) {
      arr.set_view(
          std::span<const T>(reinterpret_cast<const T*>(raw.data()), count),
          wire_->handle());
      return;
    }
    std::vector<T> vals(count);
    if (count != 0) {
      std::memcpy(vals.data(), raw.data(), raw.size());
      if (order != host_byte_order()) {
        byteswap_array(vals.data(), vals.size());
      }
    }
    arr.values() = std::move(vals);
  }

  Cursor c_;
  NsScopes scopes_;
  obs::CodecStats* stats_;
  const SharedBuffer* wire_;
};

}  // namespace

NodePtr decode(std::span<const std::uint8_t> bytes, obs::CodecStats* stats) {
  Decoder d(bytes, stats);
  NodePtr node = d.read_node();
  if (!d.at_end()) {
    throw DecodeError("trailing bytes after the top-level frame");
  }
  return node;
}

DocumentPtr decode_document(std::span<const std::uint8_t> bytes,
                            obs::CodecStats* stats) {
  NodePtr node = decode(bytes, stats);
  if (node->kind() != NodeKind::kDocument) {
    throw DecodeError("top-level frame is not a Document frame");
  }
  return DocumentPtr(static_cast<Document*>(node.release()));
}

DecodedMessage decode_message(SharedBuffer wire, obs::CodecStats* stats) {
  Decoder d(wire.bytes(), stats, &wire);
  NodePtr node = d.read_node();
  if (!d.at_end()) {
    throw DecodeError("trailing bytes after the top-level frame");
  }
  if (node->kind() != NodeKind::kDocument) {
    throw DecodeError("top-level frame is not a Document frame");
  }
  DecodedMessage m;
  m.document = DocumentPtr(static_cast<Document*>(node.release()));
  m.wire = std::move(wire);
  return m;
}

}  // namespace bxsoap::bxsa
