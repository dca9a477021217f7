// StreamWriter — push-style BXSA production without a bXDM tree.
//
// The mirror of StreamReader: an application emits start/end/leaf/array
// events and bytes come out, so a producer of a multi-gigabyte dataset
// never materializes the document. Frames that need a Size before their
// body (document, component, array) use the same fixed-width backpatched
// VLS the tree encoder uses, which is what makes single-pass streaming
// output possible at all.
//
// Usage:
//   StreamWriter w;
//   w.start_document();
//     w.start_element(QName("urn:x", "data", "x"),
//                     {{"x", "urn:x"}}, {{QName("run"), 7}});
//       w.leaf(QName("t"), 287.5);
//       w.array(QName("samples"), std::span<const double>(values));
//     w.end_element();
//   w.end_document();
//   auto bytes = w.take();     // validates all scopes closed
// Chunk mode (the streaming message path, DESIGN.md §11): construct with a
// chunk size, a BufferPool and a ChunkSink, and the writer flushes its
// buffer to the sink whenever it reaches the chunk size instead of growing
// without bound. Backpatched Size/count fields whose bytes were already
// flushed become PatchRecords — returned by finish() — which the transport
// ships after the data so a receiver can reassemble bytes IDENTICAL to the
// unchunked writer's output. Peak writer-side residency is one chunk.
//
// On a signed channel (transport stream authentication, FORMAT.md §"Auth
// trailer") the transport MACs each flushed chunk in exactly this logical
// order — data chunks as emitted here, the patch chunk after — so the
// writer needs no awareness of security: what it flushes is what gets
// authenticated, before any compression repacks the wire bytes.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/endian.hpp"
#include "xbs/xbs.hpp"
#include "xdm/node.hpp"

namespace bxsoap::bxsa {

/// A deferred backpatch: `len` bytes to overwrite at payload-relative
/// `offset` in the reassembled stream. Fields are patched whole (they are
/// written within one event), so a record never straddles a chunk.
struct PatchRecord {
  std::uint64_t offset = 0;
  std::uint8_t len = 0;
  std::uint8_t bytes[8] = {};
};

/// Receives ownership of each flushed chunk (a pooled buffer; release it
/// back to the pool when sent). Invoked inline from the emitting event.
using ChunkSink = std::function<void(std::vector<std::uint8_t>)>;

class StreamWriter {
 public:
  explicit StreamWriter(ByteOrder order = host_byte_order());

  /// Chunk mode: flush ~`chunk_bytes` pieces (acquired from `pool`) to
  /// `sink` as the document is produced; call finish() instead of take().
  StreamWriter(ByteOrder order, std::size_t chunk_bytes, BufferPool& pool,
               ChunkSink sink);

  void start_document();
  void end_document();

  /// Open a component element. Namespace declarations and attributes are
  /// given up front (they live in the frame header, before any child).
  void start_element(const xdm::QName& name,
                     std::span<const xdm::NamespaceDecl> namespaces = {},
                     std::span<const xdm::Attribute> attributes = {});
  void end_element();

  /// A complete LeafElement frame.
  template <xdm::Atomic T>
  void leaf(const xdm::QName& name, const T& value,
            std::span<const xdm::NamespaceDecl> namespaces = {},
            std::span<const xdm::Attribute> attributes = {}) {
    leaf_impl(name, xdm::ScalarValue(value), namespaces, attributes);
  }

  /// A complete ArrayElement frame with a packed payload.
  template <xdm::PackedAtomic T>
  void array(const xdm::QName& name, std::span<const T> values,
             std::string_view item_name = "d",
             std::span<const xdm::NamespaceDecl> namespaces = {},
             std::span<const xdm::Attribute> attributes = {}) {
    array_impl(name, xdm::AtomTraits<T>::kType,
               {reinterpret_cast<const std::uint8_t*>(values.data()),
                values.size_bytes()},
               values.size(), item_name, namespaces, attributes);
  }

  /// Incremental array emission for payloads too large to hand over in one
  /// span: declare the total item count up front (it lives in the frame
  /// header, before the payload), then append slices, then close. Output
  /// is byte-identical to one array() call with the concatenated items.
  template <xdm::PackedAtomic T>
  void begin_array(const xdm::QName& name, std::uint64_t count,
                   std::string_view item_name = "d",
                   std::span<const xdm::NamespaceDecl> namespaces = {},
                   std::span<const xdm::Attribute> attributes = {}) {
    begin_array_impl(name, xdm::AtomTraits<T>::kType, count, item_name,
                     namespaces, attributes);
  }
  template <xdm::PackedAtomic T>
  void append_array_items(std::span<const T> values) {
    append_array_impl({reinterpret_cast<const std::uint8_t*>(values.data()),
                       values.size_bytes()},
                      values.size());
  }
  void end_array();

  void text(std::string_view content);
  void comment(std::string_view content);
  void pi(std::string_view target, std::string_view data);

  /// Finish: every scope must be closed. Returns the document bytes.
  /// Unchunked mode only.
  std::vector<std::uint8_t> take();

  /// Chunk-mode finish: flushes the buffered tail to the sink and returns
  /// the patch records accumulated for already-flushed Size/count fields.
  std::vector<PatchRecord> finish();

  std::size_t depth() const noexcept { return open_.size(); }

  /// Total payload bytes produced so far (flushed + buffered).
  std::size_t bytes_produced() const noexcept { return w_.offset(); }

 private:
  struct OpenFrame {
    std::size_t size_pos;       // offset of the reserved Size field
    std::size_t count_pos;      // offset of the reserved child-count field
    std::uint64_t child_count;  // children emitted so far
    bool is_document;
  };

  void leaf_impl(const xdm::QName& name, const xdm::ScalarValue& value,
                 std::span<const xdm::NamespaceDecl> namespaces,
                 std::span<const xdm::Attribute> attributes);
  void array_impl(const xdm::QName& name, xdm::AtomType type,
                  std::span<const std::uint8_t> packed, std::size_t count,
                  std::string_view item_name,
                  std::span<const xdm::NamespaceDecl> namespaces,
                  std::span<const xdm::Attribute> attributes);
  void begin_array_impl(const xdm::QName& name, xdm::AtomType type,
                        std::uint64_t count, std::string_view item_name,
                        std::span<const xdm::NamespaceDecl> namespaces,
                        std::span<const xdm::Attribute> attributes);
  void append_array_impl(std::span<const std::uint8_t> packed,
                         std::size_t count);

  /// Write the element header; pushes the frame's symbol table.
  void write_header(const xdm::QName& name,
                    std::span<const xdm::NamespaceDecl> namespaces,
                    std::span<const xdm::Attribute> attributes);

  void begin_backpatched(std::uint8_t prefix_byte);
  /// Patches the innermost open frame's Size and closes it.
  void end_backpatched();
  /// end_backpatched() for a Document/ComponentElement: its child count too.
  void end_scope();
  void note_child();
  void require_open(const char* what) const;

  bool chunked() const noexcept { return chunk_bytes_ != 0; }
  /// Patch a kSizeFieldWidth-wide field at logical offset `pos`: in place
  /// if still buffered, as a PatchRecord if its bytes were flushed.
  void patch_field(std::size_t pos, const std::uint8_t* buf);
  /// Chunk mode: flush the buffer to the sink if it reached chunk size.
  void maybe_flush();
  void flush_chunk();

  ByteOrder order_;
  xbs::Writer w_;
  std::vector<OpenFrame> open_;
  std::vector<std::vector<xdm::NamespaceDecl>> ns_stack_;
  bool done_ = false;

  // Chunk mode state (chunk_bytes_ == 0 means unchunked).
  std::size_t chunk_bytes_ = 0;
  BufferPool* pool_ = nullptr;
  ChunkSink sink_;
  std::vector<PatchRecord> patches_;

  // Open incremental array (begin_array .. end_array).
  struct OpenArray {
    std::uint64_t declared = 0;
    std::uint64_t appended = 0;
    std::size_t item_width = 0;
    bool active = false;
  };
  OpenArray array_;
};

}  // namespace bxsoap::bxsa
