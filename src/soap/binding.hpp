// Binding policies: how serialized SOAP octets travel.
//
// A binding instance is one conversation endpoint. The four valid
// expressions are the paper's §5.3 verbatim, lifted from int return codes
// to exceptions:
//
//   * client side: send_request / receive_response
//   * server side: receive_request / send_response
//
// Concrete models live in src/transport (HttpBinding, TcpBinding,
// InMemoryBinding); this header only defines the vocabulary so the soap
// library stays transport-free.
#pragma once

#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer.hpp"

namespace bxsoap::soap {

/// Serialized message plus the media type the encoding policy declared
/// (bindings that have a header channel, like HTTP, carry it; raw TCP
/// framing encodes it in the frame header).
struct WireMessage {
  std::string content_type;
  std::vector<std::uint8_t> payload;
};

/// A serialized request that still borrows its largest packed arrays from
/// the envelope it was encoded from (BorrowingEncoding): the payload is
/// `framing` with `runs` spliced in (for_each_piece). Valid only while
/// that envelope lives, so it is sent synchronously or not at all.
struct GatherMessage {
  std::string_view content_type;
  std::vector<std::uint8_t> framing;
  std::vector<BorrowedRun> runs;

  std::size_t payload_size() const noexcept {
    std::size_t n = framing.size();
    for (const BorrowedRun& r : runs) n += r.bytes.size();
    return n;
  }
};

/// Bindings with a synchronous gathered send: the borrowed runs go from
/// the envelope to the socket without a copy. sends_gathered() says
/// whether the next request may go that way; when it is false (e.g. a
/// channel that may negotiate a dictionary or compression), the engine
/// hands send_request contiguous bytes as usual.
template <typename B>
concept GatherBinding = requires(B b, GatherMessage m) {
  { b.sends_gathered() } -> std::same_as<bool>;
  { b.send_request(std::move(m)) } -> std::same_as<void>;
};

template <typename B>
concept BindingPolicy = requires(B b, WireMessage m) {
  { b.send_request(std::move(m)) } -> std::same_as<void>;
  { b.receive_response() } -> std::same_as<WireMessage>;
  { b.receive_request() } -> std::same_as<WireMessage>;
  { b.send_response(std::move(m)) } -> std::same_as<void>;
};

}  // namespace bxsoap::soap
