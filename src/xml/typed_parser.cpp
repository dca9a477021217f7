// parse_typed_xml(): the one-pass typed decoder. See xml/reader.hpp for why
// it is a separate translation unit.
#include <cstring>
#include <optional>

#include "xml/annotations.hpp"
#include "xml/parser.hpp"
#include "xml/reader.hpp"

namespace bxsoap::xml {

using namespace bxsoap::xdm;

namespace {

/// Builds what retype() would make of XmlReader's untyped element, without
/// making it: the shape comes from the start tag's annotations, leaf text
/// is parsed where it lies, and array items go straight into the packed
/// vector with no per-item node.
class TypedReader final : public detail::XmlReader {
 public:
  using XmlReader::XmlReader;

 protected:
  NodePtr parse_element() override {
    using Kind = detail::TypedShape::Kind;
    enter_element();
    const std::size_t ns_mark = ns_stack_.size();
    StartTag tag = read_start_tag();
    detail::TypedShape shape = detail::take_shape(tag.attrs, ns_stack_);

    std::unique_ptr<ElementBase> node;
    switch (shape.kind) {
      case Kind::kLeaf: {
        const std::string_view text =
            read_value_text(tag.raw_name, tag.self_closing);
        node = visit_atom_type(
            shape.type, [&](auto t) -> std::unique_ptr<ElementBase> {
              using T = typename decltype(t)::type;
              return std::make_unique<LeafElement<T>>(element_name(tag),
                                                      parse_atom<T>(text));
            });
        break;
      }
      case Kind::kArray:
        node = visit_packed_type(
            shape.type, [&](auto t) -> std::unique_ptr<ElementBase> {
              using T = typename decltype(t)::type;
              auto array = std::make_unique<ArrayElement<T>>(element_name(tag));
              std::vector<T>& values = array->values();
              bool name_checked = false;
              while (const auto item =
                         next_item(tag, shape.item_name, name_checked)) {
                T v;
                if (!(item->number.valid &&
                      short_decimal_value(item->number, v))) {
                  v = parse_atom<T>(item->text);
                }
                values.push_back(v);
              }
              return array;
            });
        if (shape.item_name) {
          static_cast<ArrayElementBase&>(*node).set_item_name(
              std::move(*shape.item_name));
        }
        break;
      case Kind::kComponent: {
        auto element = std::make_unique<Element>(element_name(tag));
        if (!tag.self_closing) parse_content(*element, tag.raw_name);
        node = std::move(element);
        break;
      }
    }
    detail::finish_typed_element(*node, tag.decls, std::move(tag.attrs),
                                 ns_stack_, /*era_number_parsing=*/false);
    leave_element(ns_mark);
    return node;
  }

 private:
  /// The character data of a typed value (a leaf or an array item) through
  /// its end tag, as retype() collects it from the untyped element:
  /// comments and PIs skipped, child elements rejected, whitespace-only
  /// runs dropped under ignore_whitespace. Plain text, the common case, is
  /// a slice of the input; otherwise the view is into scratch_, valid until
  /// the next call.
  std::string_view read_value_text(std::string_view raw_name,
                                   bool self_closing) {
    if (self_closing) return {};
    const std::size_t start = pos_;
    while (!eof() && peek() != '<' && peek() != '&') ++pos_;
    if (starts_with("</")) {
      const std::string_view text = s_.substr(start, pos_ - start);
      read_end_tag(raw_name);
      return opt_.ignore_whitespace && detail::all_ws(text)
                 ? std::string_view()
                 : text;
    }

    pos_ = start;
    scratch_.clear();
    std::string run;
    auto flush_run = [&] {
      if (!(opt_.ignore_whitespace && detail::all_ws(run))) scratch_ += run;
      run.clear();
    };
    for (;;) {
      if (eof()) fail("unterminated element <" + std::string(raw_name) + ">");
      if (peek() != '<') {
        read_char_data(run, '<');
      } else if (starts_with("</")) {
        flush_run();
        read_end_tag(raw_name);
        return scratch_;
      } else if (starts_with("<![CDATA[")) {
        read_cdata(run);
      } else if (starts_with("<!--")) {
        flush_run();
        parse_comment();
      } else if (starts_with("<?")) {
        flush_run();
        parse_pi();
      } else if (starts_with("<!")) {
        fail("unsupported markup declaration in content");
      } else {
        fail("typed element <" + std::string(raw_name) +
             "> must not have element children");
      }
    }
  }

  /// An array item's text; `number` is valid when the text was scanned
  /// as a short decimal on the way (the compact path), invalid otherwise.
  struct Item {
    std::string_view text;
    ShortDecimal number;
  };

  /// The array's next item, skipping the whitespace, comments and PIs
  /// allowed between items; nullopt once the array's end tag is read.
  /// Items must follow detail::check_array_item's rule; `name_checked`
  /// records that one item has passed it.
  std::optional<Item> next_item(const StartTag& array,
                                std::optional<std::string>& item_name,
                                bool& name_checked) {
    if (array.self_closing) return std::nullopt;
    if (name_checked) {
      // The compact form write_xml() emits, <d>plain text</d>, read
      // without the general path's name and end-tag scans, the number
      // parsed as it is scanned for the end tag's '<'. It needs an
      // earlier item to have passed the general path, which proves the
      // name legal and the depth allowed. Anything else rewinds and takes
      // the general path below.
      const std::size_t item_start = pos_;
      if (take_tag("<", *item_name)) {
        Item item;
        const char* const start = s_.data() + pos_;
        const char* const end = s_.data() + s_.size();
        const char* p = scan_short_decimal(start, end, item.number);
        if (p == end || *p != '<') {
          item.number.valid = false;
          while (p != end && *p != '<' && *p != '&') ++p;
        }
        pos_ = static_cast<std::size_t>(p - s_.data());
        item.text =
            std::string_view(start, static_cast<std::size_t>(p - start));
        if (take_tag("</", *item_name)) {
          if (opt_.ignore_whitespace && detail::all_ws(item.text)) {
            item.text = {};
          }
          return item;
        }
      }
      pos_ = item_start;
    }
    for (;;) {
      skip_ws();
      if (eof()) {
        fail("unterminated element <" + std::string(array.raw_name) + ">");
      }
      if (peek() != '<' || starts_with("<![CDATA[")) {
        // Only whitespace may separate items, however it is spelled.
        scratch_.clear();
        if (peek() == '<') {
          read_cdata(scratch_);
        } else {
          read_char_data(scratch_, '<');
        }
        if (!detail::all_ws(scratch_)) {
          fail("unexpected text inside array element <" +
               std::string(array.raw_name) + ">");
        }
      } else if (starts_with("</")) {
        read_end_tag(array.raw_name);
        return std::nullopt;
      } else if (starts_with("<!--")) {
        parse_comment();
      } else if (starts_with("<?")) {
        parse_pi();
      } else if (starts_with("<!")) {
        fail("unsupported markup declaration in content");
      } else {
        Item item{read_item(item_name), {}};
        name_checked = true;
        return item;
      }
    }
  }

  /// Consume `<open><name>>` if it is next.
  bool take_tag(std::string_view open, std::string_view name) {
    const std::size_t n = open.size() + name.size() + 1;
    if (s_.size() - pos_ < n) return false;
    const char* p = s_.data() + pos_;
    if (std::memcmp(p, open.data(), open.size()) != 0 ||
        std::memcmp(p + open.size(), name.data(), name.size()) != 0 ||
        p[n - 1] != '>') {
      return false;
    }
    pos_ += n;
    return true;
  }

  /// One array item, `<name>text</name>` or `<name/>`, and nothing more.
  std::string_view read_item(std::optional<std::string>& item_name) {
    enter_element();
    expect('<');
    const std::string_view name = read_name();
    skip_ws();
    if (eof()) fail("unterminated start tag");
    bool self_closing = false;
    if (peek() == '/') {
      ++pos_;
      expect('>');
      self_closing = true;
    }
    detail::check_array_item(
        item_name, name, /*prefixed=*/name.find(':') != std::string_view::npos,
        /*has_markup=*/!self_closing && peek() != '>');
    if (!self_closing) ++pos_;  // '>'
    const std::string_view text = read_value_text(name, self_closing);
    --depth_;
    return text;
  }

  std::string scratch_;
};

}  // namespace

DocumentPtr parse_typed_xml(std::string_view text, const ParseOptions& opt) {
  TypedReader reader(text, opt);
  return reader.parse();
}

}  // namespace bxsoap::xml
