// The write side of the BXSA grammar shared by the tree Encoder and the
// StreamWriter: namespace resolution, the element header, typed values and
// the String-bodied frames. Both writers lay these out through the same
// code, so their bytes agree by construction (golden_test and
// stream_writer_test pin them).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string_view>
#include <vector>

#include "xbs/xbs.hpp"
#include "xdm/node.hpp"

namespace bxsoap::obs {
struct CodecStats;
}

namespace bxsoap::bxsa {

/// Symbol tables of the open element frames, innermost last.
using NsStack = std::vector<std::vector<xdm::NamespaceDecl>>;

struct NsRef {
  std::uint64_t depth = 0;  // 0 = no namespace
  std::uint64_t index = 0;
};

/// Resolved element header: symbol table (explicit + auto declarations) and
/// QNameRefs for the element name and each attribute. Planned before any
/// byte is written because the table is serialized ahead of the names that
/// reference it.
struct HeaderPlan {
  std::vector<xdm::NamespaceDecl> table;
  NsRef name_ref;
  std::vector<NsRef> attr_refs;
};

/// Resolves every name against the frame's own table, then `stack`
/// innermost first: an entry with the same prefix is preferred (so
/// prefixes survive round trips), then any entry with the URI; an unknown
/// URI is auto-declared into the frame's own table. `stats` (optional)
/// tallies hits and auto-declarations.
HeaderPlan plan_header(const xdm::QName& name,
                       std::span<const xdm::NamespaceDecl> decls,
                       std::span<const xdm::Attribute> attrs,
                       const NsStack& stack, obs::CodecStats* stats);

/// Writes a planned header and pushes its table onto `stack` (the caller
/// pops it when the frame's scope ends).
void put_header(xbs::Writer& w, HeaderPlan&& plan, const xdm::QName& name,
                std::span<const xdm::Attribute> attrs, NsStack& stack);

/// A typed value: strings as VLS length + bytes, bool as one byte, numbers
/// fixed-width and unaligned in the writer's byte order.
void put_scalar(xbs::Writer& w, const xdm::ScalarValue& v);

/// A frame whose body is String fields — CharacterData and Comment (one),
/// PI (two) — with its canonical Size.
void put_string_frame(xbs::Writer& w, std::uint8_t prefix_byte,
                      std::initializer_list<std::string_view> fields);

}  // namespace bxsoap::bxsa
