#include "bxsa/stream_writer.hpp"

#include <cstring>

#include "bxsa/frame.hpp"
#include "bxsa/header_writer.hpp"

namespace bxsoap::bxsa {

using namespace bxsoap::xdm;

StreamWriter::StreamWriter(ByteOrder order) : order_(order), w_(order) {}

StreamWriter::StreamWriter(ByteOrder order, std::size_t chunk_bytes,
                           BufferPool& pool, ChunkSink sink)
    : order_(order),
      w_(order, ByteWriter(pool.acquire(chunk_bytes))),
      chunk_bytes_(chunk_bytes),
      pool_(&pool),
      sink_(std::move(sink)) {
  if (chunk_bytes_ == 0) {
    throw EncodeError("chunked stream writer needs a non-zero chunk size");
  }
  if (!sink_) {
    throw EncodeError("chunked stream writer needs a sink");
  }
}

void StreamWriter::require_open(const char* what) const {
  if (done_) {
    throw EncodeError(std::string("stream writer already finished: ") + what);
  }
  if (array_.active && std::strcmp(what, "append_array_items") != 0 &&
      std::strcmp(what, "end_array") != 0) {
    throw EncodeError(std::string(what) + " inside an open begin_array");
  }
}

void StreamWriter::patch_field(std::size_t pos, const std::uint8_t* buf) {
  if (chunked() && pos < w_.stream_base()) {
    PatchRecord p;
    p.offset = pos;
    p.len = kSizeFieldWidth;
    std::memcpy(p.bytes, buf, kSizeFieldWidth);
    patches_.push_back(p);
  } else {
    w_.patch_at(pos, buf, kSizeFieldWidth);
  }
}

void StreamWriter::maybe_flush() {
  if (chunked() && w_.buffered() >= chunk_bytes_) flush_chunk();
}

void StreamWriter::flush_chunk() {
  if (w_.buffered() == 0) return;
  sink_(w_.drain(pool_->acquire(chunk_bytes_)));
}

void StreamWriter::begin_backpatched(std::uint8_t prefix_byte) {
  w_.put_u8(prefix_byte);
  OpenFrame f;
  f.size_pos = w_.offset();
  w_.raw_writer().write_padding(kSizeFieldWidth);
  f.count_pos = 0;  // set by the caller once the header is done
  f.child_count = 0;
  f.is_document = false;
  open_.push_back(f);
}

void StreamWriter::end_backpatched() {
  const OpenFrame f = open_.back();
  open_.pop_back();
  std::uint8_t buf[kSizeFieldWidth];
  vls_encode_padded(w_.offset() - f.size_pos - kSizeFieldWidth,
                    kSizeFieldWidth, buf);
  patch_field(f.size_pos, buf);
}

void StreamWriter::end_scope() {
  // The child count was reserved at fixed width too; patch it first.
  std::uint8_t buf[kSizeFieldWidth];
  vls_encode_padded(open_.back().child_count, kSizeFieldWidth, buf);
  patch_field(open_.back().count_pos, buf);
  end_backpatched();
}

void StreamWriter::note_child() {
  if (!open_.empty()) {
    ++open_.back().child_count;
  }
}

void StreamWriter::start_document() {
  require_open("start_document");
  if (!open_.empty()) {
    throw EncodeError("document frames cannot nest");
  }
  begin_backpatched(make_prefix_byte(FrameType::kDocument, order_));
  open_.back().is_document = true;
  open_.back().count_pos = w_.offset();
  w_.raw_writer().write_padding(kSizeFieldWidth);
  maybe_flush();
}

void StreamWriter::end_document() {
  require_open("end_document");
  if (open_.empty() || !open_.back().is_document) {
    throw EncodeError("end_document without a matching start_document");
  }
  end_scope();
  done_ = true;
  if (chunked()) flush_chunk();
}

void StreamWriter::write_header(const QName& name,
                                std::span<const NamespaceDecl> namespaces,
                                std::span<const Attribute> attributes) {
  put_header(w_, plan_header(name, namespaces, attributes, ns_stack_, nullptr),
             name, attributes, ns_stack_);
}

void StreamWriter::start_element(const QName& name,
                                 std::span<const NamespaceDecl> namespaces,
                                 std::span<const Attribute> attributes) {
  require_open("start_element");
  note_child();
  begin_backpatched(make_prefix_byte(FrameType::kComponentElement, order_));
  write_header(name, namespaces, attributes);
  open_.back().count_pos = w_.offset();
  w_.raw_writer().write_padding(kSizeFieldWidth);
  maybe_flush();
}

void StreamWriter::end_element() {
  require_open("end_element");
  if (open_.empty() || open_.back().is_document) {
    throw EncodeError("end_element without a matching start_element");
  }
  end_scope();
  ns_stack_.pop_back();
  maybe_flush();
}

void StreamWriter::leaf_impl(const QName& name, const ScalarValue& value,
                             std::span<const NamespaceDecl> namespaces,
                             std::span<const Attribute> attributes) {
  require_open("leaf");
  note_child();
  // Leaves are small; a backpatched size keeps the single-pass property
  // without a separate measuring pass.
  begin_backpatched(make_prefix_byte(FrameType::kLeafElement, order_));
  write_header(name, namespaces, attributes);
  w_.put_u8(static_cast<std::uint8_t>(scalar_type(value)));
  put_scalar(w_, value);
  ns_stack_.pop_back();
  end_backpatched();
  maybe_flush();
}

void StreamWriter::array_impl(const QName& name, AtomType type,
                              std::span<const std::uint8_t> packed,
                              std::size_t count, std::string_view item_name,
                              std::span<const NamespaceDecl> namespaces,
                              std::span<const Attribute> attributes) {
  // One-shot array == incremental array with a single append; routing both
  // through the same code keeps their bytes identical by construction (the
  // differential tests pin this).
  begin_array_impl(name, type, count, item_name, namespaces, attributes);
  append_array_impl(packed, count);
  end_array();
}

void StreamWriter::begin_array_impl(const QName& name, AtomType type,
                                    std::uint64_t count,
                                    std::string_view item_name,
                                    std::span<const NamespaceDecl> namespaces,
                                    std::span<const Attribute> attributes) {
  require_open("array");
  note_child();
  begin_backpatched(make_prefix_byte(FrameType::kArrayElement, order_));
  write_header(name, namespaces, attributes);
  w_.put_u8(static_cast<std::uint8_t>(type));
  w_.put_string(item_name);
  w_.put_vls(count);

  const std::size_t item = atom_wire_size(type);
  w_.align_to(item);
  array_.declared = count;
  array_.appended = 0;
  array_.item_width = item;
  array_.active = true;
}

void StreamWriter::append_array_impl(std::span<const std::uint8_t> packed,
                                     std::size_t count) {
  require_open("append_array_items");
  if (!array_.active) {
    throw EncodeError("append_array_items without an open begin_array");
  }
  if (array_.appended + count > array_.declared) {
    throw EncodeError("array items exceed the declared count");
  }
  array_.appended += count;
  const std::size_t item = array_.item_width;

  // Emit in slices that never carry the buffer past the chunk size, so a
  // multi-hundred-MiB payload flushes as it is produced instead of pooling
  // up first. Unchunked mode takes everything in one slice.
  std::size_t done = 0;
  while (done < count) {
    std::size_t take = count - done;
    if (chunked()) {
      const std::size_t room =
          chunk_bytes_ > w_.buffered() ? chunk_bytes_ - w_.buffered() : 0;
      const std::size_t fit = room / item;
      if (fit == 0) {
        flush_chunk();
        continue;
      }
      take = std::min(take, fit);
    }
    const std::uint8_t* base = packed.data() + done * item;
    if (order_ == host_byte_order() || item == 1) {
      w_.put_raw(base, take * item);
    } else {
      switch (item) {
        case 2:
          w_.raw_writer().write_array(
              std::span<const std::uint16_t>(
                  reinterpret_cast<const std::uint16_t*>(base), take),
              order_);
          break;
        case 4:
          w_.raw_writer().write_array(
              std::span<const std::uint32_t>(
                  reinterpret_cast<const std::uint32_t*>(base), take),
              order_);
          break;
        case 8:
          w_.raw_writer().write_array(
              std::span<const std::uint64_t>(
                  reinterpret_cast<const std::uint64_t*>(base), take),
              order_);
          break;
        default:
          throw EncodeError("stream writer: unknown item width");
      }
    }
    done += take;
    maybe_flush();
  }
}

void StreamWriter::end_array() {
  require_open("end_array");
  if (!array_.active) {
    throw EncodeError("end_array without an open begin_array");
  }
  if (array_.appended != array_.declared) {
    throw EncodeError("array closed with " + std::to_string(array_.appended) +
                      " of " + std::to_string(array_.declared) +
                      " declared items");
  }
  array_.active = false;
  ns_stack_.pop_back();
  end_backpatched();
  maybe_flush();
}

void StreamWriter::text(std::string_view content) {
  require_open("text");
  note_child();
  put_string_frame(w_, make_prefix_byte(FrameType::kCharacterData, order_),
                   {content});
  maybe_flush();
}

void StreamWriter::comment(std::string_view content) {
  require_open("comment");
  note_child();
  put_string_frame(w_, make_prefix_byte(FrameType::kComment, order_),
                   {content});
  maybe_flush();
}

void StreamWriter::pi(std::string_view target, std::string_view data) {
  require_open("pi");
  note_child();
  put_string_frame(w_, make_prefix_byte(FrameType::kPI, order_),
                   {target, data});
  maybe_flush();
}

std::vector<std::uint8_t> StreamWriter::take() {
  if (chunked()) {
    throw EncodeError("take() on a chunked stream writer; use finish()");
  }
  if (!open_.empty()) {
    throw EncodeError("stream writer has " + std::to_string(open_.size()) +
                      " unclosed scopes");
  }
  done_ = true;
  return w_.take();
}

std::vector<PatchRecord> StreamWriter::finish() {
  if (!chunked()) {
    throw EncodeError("finish() on an unchunked stream writer; use take()");
  }
  if (!open_.empty()) {
    throw EncodeError("stream writer has " + std::to_string(open_.size()) +
                      " unclosed scopes");
  }
  done_ = true;
  // The last piece leaves without a replacement: nothing follows it, and a
  // spare buffer would be freed with the writer instead of recycled.
  const bool empty = w_.buffered() == 0;
  std::vector<std::uint8_t> last = w_.drain();
  if (empty) {
    pool_->release(std::move(last));
  } else {
    sink_(std::move(last));
  }
  return std::move(patches_);
}

}  // namespace bxsoap::bxsa
