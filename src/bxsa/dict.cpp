#include "bxsa/dict.hpp"

#include <string_view>
#include <type_traits>

#include "bxsa/cursor.hpp"
#include "common/vls.hpp"

namespace bxsoap::bxsa {

namespace {

constexpr std::uint64_t kTagLiteral = 0;   // literal, not admitted
constexpr std::uint64_t kTagAdd = 1;       // literal, admitted as next entry
constexpr std::uint64_t kTagRefBase = 2;   // tag k>=2 references entry k-2

/// Symbol policy of a dictionary-coded stream: a symbol is a DString,
/// expanded against the table (and admitted into it on tag 1) as it is read.
struct DictSymbols {
  SymbolDictionary* dict;
  DictCounts* counts;

  template <typename Cursor>
  std::string_view operator()(Cursor& c) const {
    const std::uint64_t tag = c.vls();
    if (tag >= kTagRefBase) {
      ++counts->hits;
      return dict->entry(tag - kTagRefBase);
    }
    const std::string_view sym = c.string();
    if (tag != kTagAdd) {
      ++counts->misses;
      return sym;
    }
    if (!dict->can_add(sym)) {
      throw DecodeError(
          "dictionary admission exceeds the negotiated table bounds");
    }
    if (dict->find(sym)) {
      throw DecodeError(
          "dictionary admission of an entry already present in the table");
    }
    dict->add(sym);
    ++counts->added;
    return sym;
  }
};

/// One pass over one document stream: the read half is a cursor (plain
/// symbols when encoding, DStrings when decoding), the write half
/// re-emits each piece as it is read — the encode side folding symbols
/// into DStrings, the decode side writing them back as plain Strings. It
/// resolves no QNameRef and checks no bool byte: the decoder downstream
/// does both. All counts, lengths and Size fields are re-emitted
/// canonically (input from our encoder is canonical, so the round trip is
/// byte-identical), and array alignment padding is re-derived from output
/// offsets since references shift every downstream byte.
template <bool kEncode>
class Transform {
  using Symbols = std::conditional_t<kEncode, PlainSymbols, DictSymbols>;

 public:
  Transform(std::span<const std::uint8_t> in, SymbolDictionary& dict,
            ByteWriter& out)
      : c_(in, symbols(dict)), dict_(dict), out_(&out), base_(out.size()) {}

  DictCounts run() {
    frame();
    if (!c_.at_end()) {
      throw DecodeError("trailing bytes after the top-level frame");
    }
    return counts_;
  }

 private:
  Symbols symbols(SymbolDictionary& dict) {
    if constexpr (kEncode) {
      return {};
    } else {
      return {&dict, &counts_};
    }
  }

  // Offset of the next output byte relative to the document start (the
  // receiver decodes the payload from offset 0, so array padding must be
  // derived from this, not from whatever the writer already held).
  std::size_t out_offset() const { return out_->size() - base_; }

  void frame() {
    const FrameInfo f = c_.open();
    const std::uint8_t prefix_byte = make_prefix_byte(f.type, f.order);
    switch (f.type) {
      // Backpatched frames: the body may contain arrays whose padding
      // depends on absolute offsets, so reserve the encoder's fixed 5-byte
      // Size and fill it in once the body is down.
      case FrameType::kDocument:
      case FrameType::kComponentElement:
      case FrameType::kArrayElement: {
        out_->write_u8(prefix_byte);
        const std::size_t size_at = out_->size();
        out_->write_padding(kSizeFieldWidth);
        if (f.type != FrameType::kDocument) header();
        if (f.type == FrameType::kArrayElement) {
          array_tail();
        } else {
          const std::uint64_t n = c_.child_count();
          vls_write(*out_, n);
          for (std::uint64_t i = 0; i < n; ++i) frame();
        }
        std::uint8_t size_buf[kSizeFieldWidth];
        vls_encode_padded(out_->size() - size_at - kSizeFieldWidth,
                          kSizeFieldWidth, size_buf);
        out_->patch_bytes(size_at, size_buf, kSizeFieldWidth);
        break;
      }
      // Canonical-Size frames: no arrays inside, so build the body in a
      // scratch writer and emit prefix + minimal VLS Size + body.
      case FrameType::kLeafElement: {
        ByteWriter tmp;
        {
          ScopedOut scope(*this, tmp);
          header();
          write_value(c_.value());
        }
        emit_sized(prefix_byte, tmp);
        break;
      }
      case FrameType::kCharacterData:
      case FrameType::kComment: {
        ByteWriter tmp;
        {
          ScopedOut scope(*this, tmp);
          write_string(c_.string());
        }
        emit_sized(prefix_byte, tmp);
        break;
      }
      case FrameType::kPI: {
        ByteWriter tmp;
        {
          ScopedOut scope(*this, tmp);
          write_string(c_.string());
          write_string(c_.string());
        }
        emit_sized(prefix_byte, tmp);
        break;
      }
    }
    c_.close(f);
  }

  /// Redirects output into a scratch buffer for canonical-Size bodies.
  /// Alignment never looks at out_offset() inside these frames (no arrays),
  /// so the temporary origin shift is unobservable.
  struct ScopedOut {
    ScopedOut(Transform& t, ByteWriter& tmp)
        : t(t), saved_out(t.out_), saved_base(t.base_) {
      t.out_ = &tmp;
      t.base_ = 0;
    }
    ~ScopedOut() {
      t.out_ = saved_out;
      t.base_ = saved_base;
    }
    Transform& t;
    ByteWriter* saved_out;
    std::size_t saved_base;
  };

  void emit_sized(std::uint8_t prefix_byte, const ByteWriter& body) {
    out_->write_u8(prefix_byte);
    vls_write(*out_, body.size());
    out_->write_bytes(body.bytes());
  }

  // ---- write half -----------------------------------------------------------

  /// Re-emits the header as the cursor reads it.
  struct HeaderWriter : HeaderSink {
    Transform& t;
    void decl_count(std::uint64_t n) { vls_write(*t.out_, n); }
    void decl(const NsView& d) {
      t.write_symbol(d.prefix);
      t.write_symbol(d.uri);
    }
    void name(const QNameRef& q) { t.write_qname_ref(q); }
    void attr_count(std::uint64_t n) { vls_write(*t.out_, n); }
    void attr(const QNameRef& q, const RawValue& v) {
      t.write_qname_ref(q);
      t.write_value(v);
    }
  };

  void header() {
    HeaderWriter sink{{}, *this};
    c_.header(sink);
  }

  void write_qname_ref(const QNameRef& q) {
    vls_write(*out_, q.depth);
    if (q.depth != 0) vls_write(*out_, q.index);
    write_symbol(q.local);
  }

  void array_tail() {
    const ArrayTail tail = c_.array_tail();
    out_->write_u8(static_cast<std::uint8_t>(tail.type));
    write_symbol(tail.item_name);
    vls_write(*out_, tail.count);
    out_->write_padding(
        xbs::padding_for(out_offset(), xdm::atom_wire_size(tail.type)));
    out_->write_bytes(tail.payload);
  }

  /// Typed attribute/leaf value: content, copied verbatim (fixed-width
  /// scalars are order-agnostic byte copies).
  void write_value(const RawValue& v) {
    out_->write_u8(static_cast<std::uint8_t>(v.type));
    if (v.type == xdm::AtomType::kString) {
      vls_write(*out_, v.bytes.size());
    }
    out_->write_bytes(v.bytes);
  }

  /// A String that is content, not a symbol: re-emitted canonically.
  void write_string(std::string_view s) {
    vls_write(*out_, s.size());
    out_->write_bytes(s.data(), s.size());
  }

  /// A symbol: folded into a DString when encoding; when decoding the
  /// cursor already expanded it, so it goes back out as a plain String.
  void write_symbol(std::string_view sym) {
    if constexpr (!kEncode) {
      write_string(sym);
    } else if (const auto idx = dict_.find(sym)) {
      const std::uint64_t tag = *idx + kTagRefBase;
      vls_write(*out_, tag);
      ++counts_.hits;
      const std::size_t literal = vls_size(sym.size()) + sym.size();
      const std::size_t ref = vls_size(tag);
      if (literal > ref) counts_.bytes_saved += literal - ref;
    } else if (dict_.can_add(sym)) {
      vls_write(*out_, kTagAdd);
      write_string(sym);
      dict_.add(sym);
      ++counts_.added;
    } else {
      vls_write(*out_, kTagLiteral);
      write_string(sym);
      ++counts_.misses;
    }
  }

  DictCounts counts_;
  BasicCursor<Symbols> c_;
  SymbolDictionary& dict_;
  ByteWriter* out_;
  std::size_t base_;
};

}  // namespace

DictCounts dict_encode(std::span<const std::uint8_t> in,
                       SymbolDictionary& dict, ByteWriter& out) {
  return Transform<true>(in, dict, out).run();
}

DictCounts dict_decode(std::span<const std::uint8_t> in,
                       SymbolDictionary& dict, ByteWriter& out) {
  return Transform<false>(in, dict, out).run();
}

}  // namespace bxsoap::bxsa
