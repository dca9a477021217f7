#include "xml/writer.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "xml/escape.hpp"
#include "xml/ns_constants.hpp"

namespace bxsoap::xml {

using namespace bxsoap::xdm;

namespace {

/// 2005-era formatting: printf-family with enough digits to round-trip.
void append_scalar_text_era(std::string& out, const ScalarValue& v) {
  char buf[64];
  std::visit(
      [&](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          out += x;
        } else if constexpr (std::is_same_v<T, bool>) {
          out += x ? "true" : "false";
        } else if constexpr (std::is_floating_point_v<T>) {
          const int n = std::snprintf(buf, sizeof(buf), "%.17g",
                                      static_cast<double>(x));
          out.append(buf, static_cast<std::size_t>(n));
        } else if constexpr (std::is_signed_v<T>) {
          const int n = std::snprintf(buf, sizeof(buf), "%lld",
                                      static_cast<long long>(x));
          out.append(buf, static_cast<std::size_t>(n));
        } else {
          const int n = std::snprintf(buf, sizeof(buf), "%llu",
                                      static_cast<unsigned long long>(x));
          out.append(buf, static_cast<std::size_t>(n));
        }
      },
      v);
}

/// Text sink writing straight into a ByteWriter (the wire buffer), so
/// serialize_into builds no intermediate std::string. It claims space a
/// chunk at a time with ByteWriter::extend() and copies each piece in with
/// one memcpy; finish() trims the unused tail.
class ByteWriterText {
 public:
  explicit ByteWriterText(ByteWriter& w) : w_(w) {}

  ByteWriterText& operator+=(std::string_view s) {
    if (room_ < s.size()) grow(s.size());
    std::memcpy(cursor_, s.data(), s.size());
    cursor_ += s.size();
    room_ -= s.size();
    return *this;
  }
  ByteWriterText& operator+=(char c) { return *this += std::string_view(&c, 1); }

  void finish() {
    w_.truncate(w_.size() - room_);
    room_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 16 * 1024;

  void grow(std::size_t need) {
    finish();
    room_ = std::max(need, kChunk);
    cursor_ = w_.extend(room_);
  }

  ByteWriter& w_;
  std::uint8_t* cursor_ = nullptr;
  std::size_t room_ = 0;
};

/// Serializes into `Out`: std::string (write_xml) or ByteWriterText.
template <typename Out>
class Writer final : public NodeVisitor {
 public:
  Writer(Out& out, const WriteOptions& opt) : opt_(opt), out_(out) {}

  void visit(const Document& d) override {
    if (opt_.xml_decl) {
      out_ += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
      maybe_newline();
    }
    for (const auto& c : d.children()) {
      c->accept(*this);
      if (!is_element(*c)) maybe_newline();
    }
  }

  void visit(const Element& e) override {
    OpenTag tag = begin_open_tag(e);
    if (e.children().empty()) {
      out_ += "/>";
      end_open_tag(tag);
      return;
    }
    out_ += '>';
    const bool block = opt_.indent > 0 && !has_text_child(e);
    ++depth_;
    for (const auto& c : e.children()) {
      if (block) indent_line();
      c->accept(*this);
    }
    --depth_;
    if (block) indent_line();
    close_tag(tag.lexical);
    end_open_tag(tag);
  }

  void visit(const LeafElementBase& e) override {
    OpenTag tag = begin_open_tag(e);
    if (opt_.emit_type_info) {
      emit_type_attr("xsi", kXsiUri, "type", e.atom_type());
    }
    out_ += '>';
    std::string text;
    if (opt_.era_number_formatting) {
      append_scalar_text_era(text, e.scalar());
    } else {
      e.append_text(text);
    }
    append_escaped_text(out_, text);
    close_tag(tag.lexical);
    end_open_tag(tag);
  }

  void visit(const ArrayElementBase& e) override {
    OpenTag tag = begin_open_tag(e);
    if (opt_.emit_type_info) {
      emit_type_attr("bx", kBxUri, "arrayType", e.atom_type());
      if (e.item_name() != "d") {
        const std::string pfx = require_prefix(kBxUri, "bx");
        out_ += ' ' + pfx + ":itemName=\"";
        append_escaped_attr(out_, e.item_name());
        out_ += '"';
      }
    }
    out_ += '>';
    ++depth_;
    if (opt_.era_number_formatting) {
      std::string text;
      for (std::size_t i = 0; i < e.count(); ++i) {
        text.clear();
        append_scalar_text_era(text, e.item_scalar(i));
        append_item(e.item_name(), text);
      }
    } else {
      visit_packed_type(e.atom_type(), [&](auto type) {
        append_items<typename decltype(type)::type>(e);
      });
    }
    --depth_;
    indent_line();
    close_tag(tag.lexical);
    end_open_tag(tag);
  }

  void visit(const TextNode& t) override { append_escaped_text(out_, t.text()); }

  void visit(const PINode& pi) override {
    out_ += "<?" + pi.target();
    if (!pi.data().empty()) out_ += ' ' + pi.data();
    out_ += "?>";
  }

  void visit(const CommentNode& c) override {
    out_ += "<!--" + c.text() + "-->";
  }

 private:
  /// One array item: `<item>text</item>`, text escaped.
  void append_item(std::string_view item_name, std::string_view text) {
    indent_line();
    out_ += '<';
    out_ += item_name;
    out_ += '>';
    append_escaped_text(out_, text);
    out_ += "</";
    out_ += item_name;
    out_ += '>';
  }

  /// The modern-formatting item loop: each number is formatted straight
  /// into out_ (numbers need no escaping), read from the packed bytes with
  /// no per-item ScalarValue or temporary string.
  template <PackedAtomic T>
  void append_items(const ArrayElementBase& e) {
    const std::string open = '<' + e.item_name() + '>';
    const std::string close = "</" + e.item_name() + '>';
    const std::uint8_t* bytes = e.packed_bytes().data();
    for (std::size_t i = 0; i < e.count(); ++i) {
      T v;
      std::memcpy(&v, bytes + i * sizeof(T), sizeof(T));
      indent_line();
      out_ += open;
      append_atom_text(out_, v);
      out_ += close;
    }
  }

  struct OpenTag {
    std::string lexical;  // the element's serialized name
  };

  // ---- namespace scope handling -------------------------------------------

  /// Innermost binding of `prefix`, or nullopt when unbound.
  std::optional<std::string_view> uri_for_prefix(std::string_view prefix) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto d = scope->rbegin(); d != scope->rend(); ++d) {
        if (d->prefix == prefix) return std::string_view(d->uri);
      }
    }
    return std::nullopt;
  }

  /// An in-scope, unshadowed prefix bound to `uri`.
  std::optional<std::string> prefix_for_uri(std::string_view uri,
                                            bool allow_default) const {
    for (auto scope = scopes_.rbegin(); scope != scopes_.rend(); ++scope) {
      for (auto d = scope->rbegin(); d != scope->rend(); ++d) {
        if (d->uri != uri) continue;
        if (d->prefix.empty() && !allow_default) continue;
        if (uri_for_prefix(d->prefix) == uri) return d->prefix;
      }
    }
    return std::nullopt;
  }

  /// Bind `prefix` -> `uri` on the current element.
  void declare(std::string prefix, std::string uri) {
    scopes_.back().push_back({prefix, uri});
    pending_decls_.push_back(scopes_.back().back());
  }

  std::string fresh_prefix() {
    for (;;) {
      std::string candidate = "n" + std::to_string(++gen_counter_);
      if (!uri_for_prefix(candidate)) return candidate;
    }
  }

  /// Ensure some prefix is bound to `uri`; prefer `wanted` (declared here if
  /// free). Returns the usable prefix. Never returns the default namespace.
  std::string require_prefix(std::string_view uri, std::string_view wanted) {
    if (auto p = prefix_for_uri(uri, /*allow_default=*/false)) return *p;
    std::string prefix(wanted);
    if (prefix.empty() || uri_for_prefix(prefix).has_value()) {
      prefix = fresh_prefix();
    }
    declare(prefix, std::string(uri));
    return prefix;
  }

  /// Resolve the serialized name of an element.
  std::string qualify_element(const QName& name) {
    if (name.namespace_uri.empty()) {
      // An unprefixed name picks up the default namespace; undeclare it if
      // one is in force.
      if (auto def = uri_for_prefix(""); def && !def->empty()) {
        declare("", "");
      }
      return name.local;
    }
    // Prefer the author's prefix when it (already or newly) binds correctly.
    if (!name.prefix.empty()) {
      auto bound = uri_for_prefix(name.prefix);
      if (bound == name.namespace_uri) return name.lexical();
      if (!bound.has_value()) {
        declare(name.prefix, name.namespace_uri);
        return name.lexical();
      }
      // Prefix taken by another URI: fall through to lookup/generate.
    }
    if (auto p = prefix_for_uri(name.namespace_uri, /*allow_default=*/true)) {
      return p->empty() ? name.local : *p + ":" + name.local;
    }
    if (name.prefix.empty()) {
      // No binding anywhere: declare as the default namespace.
      declare("", name.namespace_uri);
      return name.local;
    }
    const std::string p = fresh_prefix();
    declare(p, name.namespace_uri);
    return p + ":" + name.local;
  }

  /// Resolve the serialized name of an attribute (default ns never applies).
  std::string qualify_attribute(const QName& name) {
    if (name.namespace_uri.empty()) return name.local;
    const std::string p = require_prefix(
        name.namespace_uri, name.prefix.empty() ? "a" : name.prefix);
    return p + ":" + name.local;
  }

  // ---- tag emission ---------------------------------------------------------

  OpenTag begin_open_tag(const ElementBase& e) {
    scopes_.emplace_back();
    pending_decls_.clear();
    for (const auto& d : e.namespaces()) {
      declare(d.prefix, d.uri);
    }

    OpenTag tag;
    tag.lexical = qualify_element(e.name());
    out_ += '<';
    out_ += tag.lexical;

    // Resolve attribute names (may add declarations) before emitting, so all
    // xmlns attributes appear before ordinary ones.
    std::vector<std::pair<std::string, const Attribute*>> attrs;
    attrs.reserve(e.attributes().size());
    for (const auto& a : e.attributes()) {
      attrs.emplace_back(qualify_attribute(a.name), &a);
    }
    // Typed attributes get a bx:at-<name> annotation; reserve the bx and
    // xsd prefixes before flushing declarations.
    std::string bx, xsd;
    if (opt_.emit_type_info) {
      for (const auto& [lex, a] : attrs) {
        if (a->type() != AtomType::kString) {
          bx = require_prefix(kBxUri, "bx");
          xsd = require_prefix(kXsdUri, "xsd");
          break;
        }
      }
    }

    flush_declarations();

    for (const auto& [lex, a] : attrs) {
      out_ += ' ' + lex + "=\"";
      append_escaped_attr(out_, a->text());
      out_ += '"';
      if (opt_.emit_type_info && a->type() != AtomType::kString) {
        const std::string_view canonical = atom_xsd_name(a->type());
        out_ += ' ' + bx + ":at-" + a->name.local + "=\"" + xsd +
                std::string(canonical.substr(3)) + '"';
      }
    }
    return tag;
  }

  /// Emit ` pfx:local="xsd:<type>"`, declaring pfx and xsd as needed.
  void emit_type_attr(std::string_view wanted_prefix, std::string_view uri,
                      std::string_view local, AtomType t) {
    const std::string pfx = require_prefix(uri, wanted_prefix);
    const std::string xsd = require_prefix(kXsdUri, "xsd");
    const std::string_view canonical = atom_xsd_name(t);  // "xsd:double"
    flush_declarations();
    out_ += ' ' + pfx + ":" + std::string(local) + "=\"" + xsd +
            std::string(canonical.substr(3)) + '"';
  }

  void flush_declarations() {
    for (const auto& d : pending_decls_) {
      if (d.prefix.empty()) {
        out_ += " xmlns=\"";
      } else {
        out_ += " xmlns:" + d.prefix + "=\"";
      }
      append_escaped_attr(out_, d.uri);
      out_ += '"';
    }
    pending_decls_.clear();
  }

  void end_open_tag(OpenTag&) { scopes_.pop_back(); }

  void close_tag(const std::string& lexical) {
    out_ += "</";
    out_ += lexical;
    out_ += '>';
  }

  static bool has_text_child(const Element& e) {
    for (const auto& c : e.children()) {
      if (c->kind() == NodeKind::kText) return true;
    }
    return false;
  }

  void maybe_newline() {
    if (opt_.indent > 0) out_ += '\n';
  }

  void indent_line() {
    if (opt_.indent > 0) {
      out_ += '\n';
      out_ += std::string(static_cast<std::size_t>(depth_ * opt_.indent), ' ');
    }
  }

  WriteOptions opt_;
  Out& out_;
  std::vector<std::vector<NamespaceDecl>> scopes_;
  std::vector<NamespaceDecl> pending_decls_;
  int depth_ = 0;
  int gen_counter_ = 0;
};

}  // namespace

std::string write_xml(const Node& node, const WriteOptions& opt) {
  std::string out;
  if (opt.xml_decl && node.kind() != NodeKind::kDocument) {
    // visit(Document) emits the declaration itself; for bare nodes, prefix
    // it here.
    out = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  }
  Writer<std::string> w(out, opt);
  node.accept(w);
  return out;
}

std::string write_xml(const Document& doc, const WriteOptions& opt) {
  return write_xml(static_cast<const Node&>(doc), opt);
}

void write_xml(const Node& node, ByteWriter& out, const WriteOptions& opt) {
  ByteWriterText text(out);
  if (opt.xml_decl && node.kind() != NodeKind::kDocument) {
    text += "<?xml version=\"1.0\" encoding=\"UTF-8\"?>";
  }
  Writer<ByteWriterText> w(text, opt);
  node.accept(w);
  text.finish();
}

}  // namespace bxsoap::xml
