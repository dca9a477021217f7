// BXSA encoder: bXDM tree -> frame bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/buffer.hpp"
#include "common/endian.hpp"
#include "xdm/node.hpp"

namespace bxsoap::obs {
struct CodecStats;
}

namespace bxsoap::bxsa {

struct EncodeOptions {
  /// Byte order written into every frame (the host's by default, so array
  /// payloads need no swapping on either side of a same-order exchange).
  ByteOrder order = host_byte_order();
  /// Optional codec tallies (obs/metrics.hpp): frames emitted by type,
  /// symbol-table hit/auto-declaration counts. Null = no accounting.
  obs::CodecStats* stats = nullptr;
  /// Borrow instead of copy (xbs::Writer::borrow_into): packed arrays of
  /// at least xbs::kBorrowMinBytes that need no byte swap are appended here
  /// as runs pointing at the nodes' storage, and only their pads go into
  /// the output. Null (the default) encodes contiguously.
  std::vector<BorrowedRun>* borrow = nullptr;
};

/// Encode a whole document (or any single node) as a BXSA frame sequence.
/// The returned buffer starts at frame offset 0; array-payload alignment is
/// relative to its beginning.
std::vector<std::uint8_t> encode(const xdm::Node& node,
                                 const EncodeOptions& opt = {});

/// Encode into an existing ByteWriter (e.g. a pooled buffer with a transport
/// frame header already reserved). The BXSA stream origin is wherever `out`
/// currently ends, so array alignment — and therefore every emitted byte —
/// is identical to encode(): receivers that treat the payload start as
/// offset 0 decode it unchanged.
void encode_append(const xdm::Node& node, ByteWriter& out,
                   const EncodeOptions& opt = {});

}  // namespace bxsoap::bxsa
