#include "bxsa/scanner.hpp"

namespace bxsoap::bxsa {

namespace {

bool is_element_frame(FrameType t) {
  return t == FrameType::kComponentElement || t == FrameType::kLeafElement ||
         t == FrameType::kArrayElement;
}

/// Skip mode: the header is parsed but nothing is resolved or kept, except
/// the element's local name when asked for.
struct NameOnly : HeaderSink {
  std::string_view local;
  void name(const QNameRef& q) { local = q.local; }
};

}  // namespace

FrameInfo FrameScanner::frame_at(std::size_t offset) const {
  Cursor c(bytes_);
  c.seek(offset);
  return c.open();
}

std::optional<FrameInfo> FrameScanner::next(const FrameInfo& f,
                                            std::size_t limit) const {
  const std::size_t pos = f.end();
  if (pos >= limit) return std::nullopt;
  return frame_at(pos);
}

Cursor FrameScanner::past_header(const FrameInfo& f) const {
  if (!is_element_frame(f.type)) {
    throw DecodeError("frame has no element header");
  }
  Cursor c(bytes_);
  c.seek(f.body_offset);
  HeaderSink skip;
  c.header(skip);
  return c;
}

Cursor FrameScanner::at_children(const FrameInfo& parent) const {
  if (parent.type == FrameType::kComponentElement) return past_header(parent);
  if (parent.type != FrameType::kDocument) {
    throw DecodeError("frame type has no child frames");
  }
  Cursor c(bytes_);
  c.seek(parent.body_offset);
  return c;
}

std::size_t FrameScanner::child_count(const FrameInfo& parent) const {
  return static_cast<std::size_t>(at_children(parent).child_count());
}

std::optional<FrameInfo> FrameScanner::first_child(
    const FrameInfo& parent) const {
  Cursor c = at_children(parent);
  if (c.child_count() == 0) return std::nullopt;
  return c.open();
}

std::optional<FrameInfo> FrameScanner::child(const FrameInfo& parent,
                                             std::size_t n) const {
  auto c = first_child(parent);
  for (std::size_t i = 0; c && i < n; ++i) {
    c = next(*c, parent.end());
  }
  return c;
}

std::string FrameScanner::element_local_name(const FrameInfo& f) const {
  if (!is_element_frame(f.type)) {
    throw DecodeError("frame is not an element frame");
  }
  Cursor c(bytes_);
  c.seek(f.body_offset);
  NameOnly sink;
  c.header(sink);
  return std::string(sink.local);
}

FrameScanner::ArrayView FrameScanner::array_view(const FrameInfo& f) const {
  if (f.type != FrameType::kArrayElement) {
    throw DecodeError("frame is not an ArrayElement frame");
  }
  const ArrayTail tail = past_header(f).array_tail();
  return {tail.type, tail.count, tail.payload};
}

}  // namespace bxsoap::bxsa
