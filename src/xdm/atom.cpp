#include "xdm/atom.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/numeric_text.hpp"

namespace bxsoap::xdm {

std::size_t atom_wire_size(AtomType t) {
  switch (t) {
    case AtomType::kString:
      return 0;
    case AtomType::kInt8:
    case AtomType::kUInt8:
    case AtomType::kBool:
      return 1;
    case AtomType::kInt16:
    case AtomType::kUInt16:
      return 2;
    case AtomType::kInt32:
    case AtomType::kUInt32:
    case AtomType::kFloat32:
      return 4;
    case AtomType::kInt64:
    case AtomType::kUInt64:
    case AtomType::kFloat64:
      return 8;
  }
  throw Error("unknown atom type");
}

std::string_view atom_xsd_name(AtomType t) {
  switch (t) {
    case AtomType::kString:
      return "xsd:string";
    case AtomType::kInt8:
      return "xsd:byte";
    case AtomType::kUInt8:
      return "xsd:unsignedByte";
    case AtomType::kInt16:
      return "xsd:short";
    case AtomType::kUInt16:
      return "xsd:unsignedShort";
    case AtomType::kInt32:
      return "xsd:int";
    case AtomType::kUInt32:
      return "xsd:unsignedInt";
    case AtomType::kInt64:
      return "xsd:long";
    case AtomType::kUInt64:
      return "xsd:unsignedLong";
    case AtomType::kFloat32:
      return "xsd:float";
    case AtomType::kFloat64:
      return "xsd:double";
    case AtomType::kBool:
      return "xsd:boolean";
  }
  throw Error("unknown atom type");
}

std::optional<AtomType> atom_from_xsd_local(std::string_view local) {
  if (local == "string") return AtomType::kString;
  if (local == "byte") return AtomType::kInt8;
  if (local == "unsignedByte") return AtomType::kUInt8;
  if (local == "short") return AtomType::kInt16;
  if (local == "unsignedShort") return AtomType::kUInt16;
  if (local == "int") return AtomType::kInt32;
  if (local == "unsignedInt") return AtomType::kUInt32;
  if (local == "long") return AtomType::kInt64;
  if (local == "unsignedLong") return AtomType::kUInt64;
  if (local == "float") return AtomType::kFloat32;
  if (local == "double") return AtomType::kFloat64;
  if (local == "boolean") return AtomType::kBool;
  return std::nullopt;
}

std::string_view atom_debug_name(AtomType t) {
  switch (t) {
    case AtomType::kString:
      return "string";
    case AtomType::kInt8:
      return "int8";
    case AtomType::kUInt8:
      return "uint8";
    case AtomType::kInt16:
      return "int16";
    case AtomType::kUInt16:
      return "uint16";
    case AtomType::kInt32:
      return "int32";
    case AtomType::kUInt32:
      return "uint32";
    case AtomType::kInt64:
      return "int64";
    case AtomType::kUInt64:
      return "uint64";
    case AtomType::kFloat32:
      return "float32";
    case AtomType::kFloat64:
      return "float64";
    case AtomType::kBool:
      return "bool";
  }
  throw Error("unknown atom type");
}

AtomType scalar_type(const ScalarValue& v) {
  return std::visit(
      [](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        return AtomTraits<T>::kType;
      },
      v);
}

void append_scalar_text(std::string& out, const ScalarValue& v) {
  std::visit(
      [&out](const auto& x) {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, std::string>) {
          out += x;
        } else if constexpr (std::is_same_v<T, bool>) {
          out += x ? "true" : "false";
        } else {
          char buf[kMaxNumberChars];
          out.append(buf, write_atom_text(buf, x));
        }
      },
      v);
}

std::string scalar_text(const ScalarValue& v) {
  std::string s;
  append_scalar_text(s, v);
  return s;
}

namespace {

template <typename T>
T parse_integral_or_throw(std::string_view text) {
  if constexpr (std::is_signed_v<T>) {
    auto v = parse_int64(text);
    if (!v || *v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
        *v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
      throw DecodeError("bad integer lexical form: '" + std::string(text) +
                        "'");
    }
    return static_cast<T>(*v);
  } else {
    auto v = parse_uint64(text);
    if (!v || *v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      throw DecodeError("bad unsigned lexical form: '" + std::string(text) +
                        "'");
    }
    return static_cast<T>(*v);
  }
}

/// The lexical rules behind parse_atom and parse_scalar; declared inline so
/// parse_scalar's per-type dispatch inlines it rather than adding a call.
template <Atomic T>
inline T parse_text(std::string_view text) {
  if constexpr (std::is_same_v<T, std::string>) {
    return std::string(text);  // strings keep surrounding whitespace
  } else {
    const std::string_view t = trim_xml_ws(text);
    if constexpr (std::is_same_v<T, bool>) {
      if (t == "true" || t == "1") return true;
      if (t == "false" || t == "0") return false;
      throw DecodeError("bad boolean lexical form: '" + std::string(t) + "'");
    } else if constexpr (std::is_same_v<T, float>) {
      auto v = parse_float(t);
      if (!v) throw DecodeError("bad float lexical form: '" + std::string(t) + "'");
      return *v;
    } else if constexpr (std::is_same_v<T, double>) {
      auto v = parse_double(t);
      if (!v) throw DecodeError("bad double lexical form: '" + std::string(t) + "'");
      return *v;
    } else {
      return parse_integral_or_throw<T>(t);
    }
  }
}

}  // namespace

template <Atomic T>
T parse_atom(std::string_view text) {
  return parse_text<T>(text);
}

template std::string parse_atom<std::string>(std::string_view);
template std::int8_t parse_atom<std::int8_t>(std::string_view);
template std::uint8_t parse_atom<std::uint8_t>(std::string_view);
template std::int16_t parse_atom<std::int16_t>(std::string_view);
template std::uint16_t parse_atom<std::uint16_t>(std::string_view);
template std::int32_t parse_atom<std::int32_t>(std::string_view);
template std::uint32_t parse_atom<std::uint32_t>(std::string_view);
template std::int64_t parse_atom<std::int64_t>(std::string_view);
template std::uint64_t parse_atom<std::uint64_t>(std::string_view);
template float parse_atom<float>(std::string_view);
template double parse_atom<double>(std::string_view);
template bool parse_atom<bool>(std::string_view);

ScalarValue parse_scalar(AtomType type, std::string_view text) {
  return visit_atom_type(type, [text](auto t) -> ScalarValue {
    return parse_text<typename decltype(t)::type>(text);
  });
}

namespace {

/// strtod/strtoll need a NUL-terminated buffer; lexical forms are short.
template <typename Convert>
auto era_convert(std::string_view text, Convert convert) {
  char buf[64];
  const std::string_view t = trim_xml_ws(text);
  if (t.empty() || t.size() >= sizeof(buf)) {
    throw DecodeError("bad numeric lexical form: '" + std::string(text) +
                      "'");
  }
  std::memcpy(buf, t.data(), t.size());
  buf[t.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const auto v = convert(buf, &end);
  if (errno == ERANGE || end != buf + t.size()) {
    throw DecodeError("bad numeric lexical form: '" + std::string(text) +
                      "'");
  }
  return v;
}

}  // namespace

ScalarValue parse_scalar_era(AtomType type, std::string_view text) {
  switch (type) {
    case AtomType::kFloat64:
      return era_convert(
          text, [](const char* s, char** e) { return std::strtod(s, e); });
    case AtomType::kFloat32:
      return era_convert(
          text, [](const char* s, char** e) { return std::strtof(s, e); });
    case AtomType::kInt8:
    case AtomType::kInt16:
    case AtomType::kInt32:
    case AtomType::kInt64: {
      const long long v = era_convert(text, [](const char* s, char** e) {
        return std::strtoll(s, e, 10);
      });
      // Reuse parse_scalar's width checks on the canonical form.
      return parse_scalar(type, format_int64(v));
    }
    case AtomType::kUInt8:
    case AtomType::kUInt16:
    case AtomType::kUInt32:
    case AtomType::kUInt64: {
      // strtoull silently wraps negative input; reject it up front.
      if (trim_xml_ws(text).starts_with('-')) {
        throw DecodeError("bad unsigned lexical form: '" + std::string(text) +
                          "'");
      }
      const unsigned long long v =
          era_convert(text, [](const char* s, char** e) {
            return std::strtoull(s, e, 10);
          });
      return parse_scalar(type, format_uint64(v));
    }
    case AtomType::kString:
    case AtomType::kBool:
      return parse_scalar(type, text);
  }
  throw Error("unknown atom type");
}

}  // namespace bxsoap::xdm
