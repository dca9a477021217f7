#include "bxsa/encoder.hpp"

#include <optional>

#include "bxsa/frame.hpp"
#include "bxsa/header_writer.hpp"
#include "obs/metrics.hpp"

namespace bxsoap::bxsa {

using namespace bxsoap::xdm;

namespace {

std::size_t string_field_size(std::string_view s) {
  return vls_size(s.size()) + s.size();
}

std::size_t qname_ref_size(const NsRef& ref, const std::string& local) {
  std::size_t n = vls_size(ref.depth);
  if (ref.depth != 0) n += vls_size(ref.index);
  return n + string_field_size(local);
}

std::size_t scalar_value_size(const ScalarValue& v) {
  return std::visit(
      [](const auto& x) -> std::size_t {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return string_field_size(x);
        } else if constexpr (std::is_same_v<T, bool>) {
          return 1;
        } else {
          return sizeof(T);
        }
      },
      v);
}

class Encoder final : public NodeVisitor {
 public:
  explicit Encoder(const EncodeOptions& opt)
      : order_(opt.order), w_(opt.order), stats_(opt.stats) {
    w_.borrow_into(opt.borrow);
  }

  Encoder(const EncodeOptions& opt, ByteWriter out)
      : order_(opt.order), w_(opt.order, std::move(out)), stats_(opt.stats) {
    w_.borrow_into(opt.borrow);
  }

  std::vector<std::uint8_t> take() { return w_.take(); }
  ByteWriter take_writer() { return w_.take_writer(); }

  void visit(const Document& d) override {
    BackpatchedFrame frame(*this, FrameType::kDocument);
    w_.put_vls(d.children().size());
    for (const auto& c : d.children()) c->accept(*this);
  }

  void visit(const Element& e) override {
    BackpatchedFrame frame(*this, FrameType::kComponentElement);
    put_header(w_, plan(e), e.name(), e.attributes(), ns_stack_);
    w_.put_vls(e.children().size());
    for (const auto& c : e.children()) c->accept(*this);
    ns_stack_.pop_back();
  }

  void visit(const LeafElementBase& e) override {
    // Leaf frames carry no offset-dependent padding, so their Size is
    // computed up front and written canonically (no 5-byte reservation).
    HeaderPlan header = plan(e);
    const ScalarValue value = e.scalar();
    const std::size_t body =
        header_size(e, header) + 1 + scalar_value_size(value);

    count_frame(FrameType::kLeafElement);
    w_.put_u8(make_prefix_byte(FrameType::kLeafElement, order_));
    w_.put_vls(body);
    put_header(w_, std::move(header), e.name(), e.attributes(), ns_stack_);
    w_.put_u8(static_cast<std::uint8_t>(e.atom_type()));
    put_scalar(w_, value);
    ns_stack_.pop_back();
  }

  void visit(const ArrayElementBase& e) override {
    BackpatchedFrame frame(*this, FrameType::kArrayElement);
    put_header(w_, plan(e), e.name(), e.attributes(), ns_stack_);
    w_.put_u8(static_cast<std::uint8_t>(e.atom_type()));
    w_.put_string(e.item_name());
    w_.put_vls(e.count());
    put_packed_items(e);
    ns_stack_.pop_back();
  }

  void visit(const TextNode& t) override {
    count_frame(FrameType::kCharacterData);
    put_string_frame(w_, make_prefix_byte(FrameType::kCharacterData, order_),
                     {t.text()});
  }

  void visit(const CommentNode& c) override {
    count_frame(FrameType::kComment);
    put_string_frame(w_, make_prefix_byte(FrameType::kComment, order_),
                     {c.text()});
  }

  void visit(const PINode& pi) override {
    count_frame(FrameType::kPI);
    put_string_frame(w_, make_prefix_byte(FrameType::kPI, order_),
                     {pi.target(), pi.data()});
  }

 private:
  /// RAII for frames whose Size is reserved at kSizeFieldWidth bytes and
  /// backpatched when the body is complete (frames that can contain
  /// aligned array payloads, whose padding depends on absolute offsets).
  class BackpatchedFrame {
   public:
    BackpatchedFrame(Encoder& enc, FrameType type) : enc_(enc) {
      enc_.count_frame(type);
      enc_.w_.put_u8(make_prefix_byte(type, enc_.order_));
      size_pos_ = enc_.w_.offset();
      enc_.w_.raw_writer().write_padding(kSizeFieldWidth);
    }
    ~BackpatchedFrame() {
      const std::uint64_t body =
          enc_.w_.offset() - size_pos_ - kSizeFieldWidth;
      std::uint8_t buf[kSizeFieldWidth];
      vls_encode_padded(body, kSizeFieldWidth, buf);
      // size_pos_ is stream-relative; patch_at adds the writer's origin so
      // appending after a reserved transport header still patches the right
      // bytes.
      enc_.w_.patch_at(size_pos_, buf, kSizeFieldWidth);
    }

   private:
    Encoder& enc_;
    std::size_t size_pos_ = 0;
  };

  HeaderPlan plan(const ElementBase& e) {
    return plan_header(e.name(), e.namespaces(), e.attributes(), ns_stack_,
                       stats_);
  }

  std::size_t header_size(const ElementBase& e, const HeaderPlan& plan) {
    std::size_t n = vls_size(plan.table.size());
    for (const auto& d : plan.table) {
      n += string_field_size(d.prefix) + string_field_size(d.uri);
    }
    n += qname_ref_size(plan.name_ref, e.name().local);
    n += vls_size(e.attributes().size());
    for (std::size_t i = 0; i < e.attributes().size(); ++i) {
      const Attribute& a = e.attributes()[i];
      n += qname_ref_size(plan.attr_refs[i], a.name.local) + 1 +
           scalar_value_size(a.value);
    }
    return n;
  }

  /// Array payload: aligned, packed, in the frame's byte order (or
  /// borrowed from the node, in borrowing mode).
  void put_packed_items(const ArrayElementBase& e) {
    const auto bytes = e.packed_bytes();
    switch (e.atom_type()) {
      case AtomType::kInt8:
      case AtomType::kUInt8:
        put_typed_items<std::uint8_t>(bytes, e.count());
        return;
      case AtomType::kInt16:
        put_typed_items<std::int16_t>(bytes, e.count());
        return;
      case AtomType::kUInt16:
        put_typed_items<std::uint16_t>(bytes, e.count());
        return;
      case AtomType::kInt32:
        put_typed_items<std::int32_t>(bytes, e.count());
        return;
      case AtomType::kUInt32:
        put_typed_items<std::uint32_t>(bytes, e.count());
        return;
      case AtomType::kInt64:
        put_typed_items<std::int64_t>(bytes, e.count());
        return;
      case AtomType::kUInt64:
        put_typed_items<std::uint64_t>(bytes, e.count());
        return;
      case AtomType::kFloat32:
        put_typed_items<float>(bytes, e.count());
        return;
      case AtomType::kFloat64:
        put_typed_items<double>(bytes, e.count());
        return;
      case AtomType::kBool:
      case AtomType::kString:
        throw EncodeError("array element holds a non-packed atom type");
    }
    throw EncodeError("unknown array atom type");
  }

  template <typename T>
  void put_typed_items(std::span<const std::uint8_t> bytes,
                       std::size_t count) {
    w_.put_array(
        std::span<const T>(reinterpret_cast<const T*>(bytes.data()), count));
  }

  void count_frame(FrameType type) {
    if (stats_ != nullptr) {
      stats_->frames_by_type[static_cast<std::size_t>(type)].add();
    }
  }

  ByteOrder order_;
  xbs::Writer w_;
  NsStack ns_stack_;
  obs::CodecStats* stats_;
};

NsRef resolve(const QName& q, std::vector<NamespaceDecl>& own_table,
              const NsStack& stack, obs::CodecStats* stats) {
  if (q.namespace_uri.empty()) return {};
  auto search = [&](bool exact) -> std::optional<NsRef> {
    auto match = [&](const NamespaceDecl& d) {
      return d.uri == q.namespace_uri && (!exact || d.prefix == q.prefix);
    };
    for (std::size_t i = 0; i < own_table.size(); ++i) {
      if (match(own_table[i])) return NsRef{1, i};
    }
    for (std::size_t up = 0; up < stack.size(); ++up) {
      const auto& table = stack[stack.size() - 1 - up];
      for (std::size_t i = 0; i < table.size(); ++i) {
        if (match(table[i])) return NsRef{up + 2, i};
      }
    }
    return std::nullopt;
  };
  std::optional<NsRef> found = search(/*exact=*/true);
  if (!found) found = search(/*exact=*/false);
  if (stats != nullptr) {
    (found ? stats->symtab_hits : stats->symtab_auto_decls).add();
  }
  if (found) return *found;
  own_table.push_back({q.prefix, q.namespace_uri});
  return {1, own_table.size() - 1};
}

void put_qname_ref(xbs::Writer& w, const NsRef& ref, const std::string& local) {
  w.put_vls(ref.depth);
  if (ref.depth != 0) w.put_vls(ref.index);
  w.put_string(local);
}

}  // namespace

HeaderPlan plan_header(const QName& name, std::span<const NamespaceDecl> decls,
                       std::span<const Attribute> attrs, const NsStack& stack,
                       obs::CodecStats* stats) {
  HeaderPlan plan;
  plan.table.assign(decls.begin(), decls.end());
  plan.name_ref = resolve(name, plan.table, stack, stats);
  plan.attr_refs.reserve(attrs.size());
  for (const auto& a : attrs) {
    plan.attr_refs.push_back(resolve(a.name, plan.table, stack, stats));
  }
  return plan;
}

void put_header(xbs::Writer& w, HeaderPlan&& plan, const QName& name,
                std::span<const Attribute> attrs, NsStack& stack) {
  w.put_vls(plan.table.size());
  for (const auto& d : plan.table) {
    w.put_string(d.prefix);
    w.put_string(d.uri);
  }
  stack.push_back(std::move(plan.table));
  put_qname_ref(w, plan.name_ref, name.local);
  w.put_vls(attrs.size());
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    put_qname_ref(w, plan.attr_refs[i], attrs[i].name.local);
    w.put_u8(static_cast<std::uint8_t>(attrs[i].type()));
    put_scalar(w, attrs[i].value);
  }
}

void put_scalar(xbs::Writer& w, const ScalarValue& v) {
  std::visit(
      [&w](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          w.put_string(x);
        } else if constexpr (std::is_same_v<T, bool>) {
          w.put_u8(x ? 1 : 0);
        } else {
          w.put_unaligned(x);
        }
      },
      v);
}

void put_string_frame(xbs::Writer& w, std::uint8_t prefix_byte,
                      std::initializer_list<std::string_view> fields) {
  std::size_t body = 0;
  for (const std::string_view f : fields) body += string_field_size(f);
  w.put_u8(prefix_byte);
  w.put_vls(body);
  for (const std::string_view f : fields) w.put_string(f);
}

std::vector<std::uint8_t> encode(const Node& node, const EncodeOptions& opt) {
  Encoder enc(opt);
  node.accept(enc);
  return enc.take();
}

void encode_append(const Node& node, ByteWriter& out,
                   const EncodeOptions& opt) {
  Encoder enc(opt, std::move(out));
  node.accept(enc);
  out = enc.take_writer();
}

}  // namespace bxsoap::bxsa
