// Typed atomic values — the piece XDM adds over the XML Infoset and the key
// to the paper's performance result: a LeafElement<double> keeps its value
// as a machine double, so the BXSA encoder never touches ASCII.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "common/error.hpp"
#include "common/numeric_text.hpp"

namespace bxsoap::xdm {

/// Wire/type codes for atomic values. The numeric values are stable: BXSA
/// writes them as the one-byte "value type code" in element and attribute
/// frames.
enum class AtomType : std::uint8_t {
  kString = 0,
  kInt8 = 1,
  kUInt8 = 2,
  kInt16 = 3,
  kUInt16 = 4,
  kInt32 = 5,
  kUInt32 = 6,
  kInt64 = 7,
  kUInt64 = 8,
  kFloat32 = 9,
  kFloat64 = 10,
  kBool = 11,
};

/// Size in bytes of one value of the given type on the wire; 0 for kString
/// (variable length).
std::size_t atom_wire_size(AtomType t);

/// Lexical metadata for a type: its XML Schema name ("xsd:int", ...) used as
/// xsi:type when transcoding to textual XML.
std::string_view atom_xsd_name(AtomType t);

/// Reverse lookup from an XML Schema local name ("int", "double", ...).
std::optional<AtomType> atom_from_xsd_local(std::string_view local);

/// Human-readable name for diagnostics ("int32", "float64", ...).
std::string_view atom_debug_name(AtomType t);

/// Maps C++ primitive types to their AtomType code at compile time, and is
/// the concept gate for LeafElement<T> / ArrayElement<T>.
template <typename T>
struct AtomTraits;

#define BXSOAP_ATOM_TRAITS(cpp, code)                    \
  template <>                                            \
  struct AtomTraits<cpp> {                               \
    static constexpr AtomType kType = AtomType::code;    \
    using value_type = cpp;                              \
  }

BXSOAP_ATOM_TRAITS(std::int8_t, kInt8);
BXSOAP_ATOM_TRAITS(std::uint8_t, kUInt8);
BXSOAP_ATOM_TRAITS(std::int16_t, kInt16);
BXSOAP_ATOM_TRAITS(std::uint16_t, kUInt16);
BXSOAP_ATOM_TRAITS(std::int32_t, kInt32);
BXSOAP_ATOM_TRAITS(std::uint32_t, kUInt32);
BXSOAP_ATOM_TRAITS(std::int64_t, kInt64);
BXSOAP_ATOM_TRAITS(std::uint64_t, kUInt64);
BXSOAP_ATOM_TRAITS(float, kFloat32);
BXSOAP_ATOM_TRAITS(double, kFloat64);
BXSOAP_ATOM_TRAITS(bool, kBool);

#undef BXSOAP_ATOM_TRAITS

template <>
struct AtomTraits<std::string> {
  static constexpr AtomType kType = AtomType::kString;
  using value_type = std::string;
};

template <typename T>
concept Atomic = requires { AtomTraits<T>::kType; };

/// Numeric atom types only — the ones ArrayElement may hold as a packed
/// array. Strings are not fixed-width; bool is excluded because
/// std::vector<bool> has no contiguous byte representation (use uint8
/// arrays for flags).
template <typename T>
concept PackedAtomic = Atomic<T> && !std::is_same_v<T, std::string> &&
                       !std::is_same_v<T, bool>;

/// A type-erased atomic value. Holds the value natively; conversion to/from
/// text happens only at the textual-XML boundary.
using ScalarValue =
    std::variant<std::string, std::int8_t, std::uint8_t, std::int16_t,
                 std::uint16_t, std::int32_t, std::uint32_t, std::int64_t,
                 std::uint64_t, float, double, bool>;

/// Call `f(std::type_identity<T>{})` with the C++ type T whose code is `t`
/// and return its result (one switch for every per-type template).
template <typename F>
decltype(auto) visit_atom_type(AtomType t, F&& f) {
  switch (t) {
    case AtomType::kString:
      return f(std::type_identity<std::string>{});
    case AtomType::kInt8:
      return f(std::type_identity<std::int8_t>{});
    case AtomType::kUInt8:
      return f(std::type_identity<std::uint8_t>{});
    case AtomType::kInt16:
      return f(std::type_identity<std::int16_t>{});
    case AtomType::kUInt16:
      return f(std::type_identity<std::uint16_t>{});
    case AtomType::kInt32:
      return f(std::type_identity<std::int32_t>{});
    case AtomType::kUInt32:
      return f(std::type_identity<std::uint32_t>{});
    case AtomType::kInt64:
      return f(std::type_identity<std::int64_t>{});
    case AtomType::kUInt64:
      return f(std::type_identity<std::uint64_t>{});
    case AtomType::kFloat32:
      return f(std::type_identity<float>{});
    case AtomType::kFloat64:
      return f(std::type_identity<double>{});
    case AtomType::kBool:
      return f(std::type_identity<bool>{});
  }
  throw Error("unknown atom type");
}

/// visit_atom_type over the PackedAtomic types only; bool and string have
/// no packed array form and throw DecodeError.
template <typename F>
decltype(auto) visit_packed_type(AtomType t, F&& f) {
  switch (t) {
    case AtomType::kInt8:
      return f(std::type_identity<std::int8_t>{});
    case AtomType::kUInt8:
      return f(std::type_identity<std::uint8_t>{});
    case AtomType::kInt16:
      return f(std::type_identity<std::int16_t>{});
    case AtomType::kUInt16:
      return f(std::type_identity<std::uint16_t>{});
    case AtomType::kInt32:
      return f(std::type_identity<std::int32_t>{});
    case AtomType::kUInt32:
      return f(std::type_identity<std::uint32_t>{});
    case AtomType::kInt64:
      return f(std::type_identity<std::int64_t>{});
    case AtomType::kUInt64:
      return f(std::type_identity<std::uint64_t>{});
    case AtomType::kFloat32:
      return f(std::type_identity<float>{});
    case AtomType::kFloat64:
      return f(std::type_identity<double>{});
    case AtomType::kString:
    case AtomType::kBool:
      break;
  }
  throw DecodeError("bool/string arrays are not packed types");
}

AtomType scalar_type(const ScalarValue& v);

/// Format a scalar as XML Schema canonical-ish text (numbers via to_chars,
/// bool as "true"/"false", strings verbatim).
void append_scalar_text(std::string& out, const ScalarValue& v);
std::string scalar_text(const ScalarValue& v);

/// Write the text append_scalar_text gives a packed value at `p`, which
/// must have kMaxNumberChars of room (numbers never need XML escaping);
/// returns the end.
template <PackedAtomic T>
char* write_atom_text(char* p, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return write_number(p, v);
  } else if constexpr (std::is_signed_v<T>) {
    return write_number(p, static_cast<std::int64_t>(v));
  } else {
    return write_number(p, static_cast<std::uint64_t>(v));
  }
}

/// Parse text into a scalar of the requested type; throws DecodeError if the
/// text is not a valid lexical form for the type.
ScalarValue parse_scalar(AtomType type, std::string_view text);

/// parse_scalar for a type known at compile time: the same lexical rules
/// (parse_scalar is built on it), with no variant in between.
template <Atomic T>
T parse_atom(std::string_view text);

/// 2005-era variant: strtod/strtoll instead of from_chars. Same values,
/// era-faithful CPU cost (see xml::RetypeOptions::era_number_parsing).
ScalarValue parse_scalar_era(AtomType type, std::string_view text);

template <Atomic T>
const T& scalar_get(const ScalarValue& v) {
  const T* p = std::get_if<T>(&v);
  if (p == nullptr) {
    throw Error("scalar holds a different type than requested");
  }
  return *p;
}

}  // namespace bxsoap::xdm
