#include "transport/striped.hpp"

#include <algorithm>
#include <thread>

#include "common/endian.hpp"
#include "common/vls.hpp"
#include "transport/framing.hpp"

namespace bxsoap::transport {

namespace detail {

namespace {

constexpr char kHelloMagic[4] = {'B', 'X', 'S', 'P'};
constexpr char kMessageMagic[4] = {'B', 'X', 'S', 'M'};

/// The block indices a given stream carries, as (offset, length) slices of
/// the payload — both sides compute the identical layout.
std::vector<std::pair<std::size_t, std::size_t>> slices_for_stream(
    std::size_t payload_size, std::size_t streams, std::size_t stream) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t offset = stream * kStripeBlockSize;
  // Block b lives on stream b % streams; stream s gets blocks s, s+n, ...
  const std::size_t stride = streams * kStripeBlockSize;
  while (offset < payload_size) {
    out.emplace_back(offset,
                     std::min(kStripeBlockSize, payload_size - offset));
    offset += stride;
  }
  return out;
}

}  // namespace

void StripedChannel::send(const soap::WireMessage& m) {
  if (streams_.empty()) throw TransportError("striped channel not connected");

  // Header frame on stream 0.
  ByteWriter header;
  header.write_bytes(kMessageMagic, sizeof(kMessageMagic));
  vls_write(header, m.content_type.size());
  header.write_string(m.content_type);
  header.write<std::uint64_t>(m.payload.size(), ByteOrder::kBig);
  streams_[0].write_all(header.bytes());

  if (m.payload.empty()) return;
  if (streams_.size() == 1) {
    streams_[0].write_all(m.payload);
    return;
  }
  // Writers run concurrently so each connection's window fills in
  // parallel — that is the whole point of striping.
  std::vector<std::thread> writers;
  std::vector<std::string> errors(streams_.size());
  writers.reserve(streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    writers.emplace_back([this, s, &m, &errors] {
      try {
        for (const auto& [offset, len] :
             slices_for_stream(m.payload.size(), streams_.size(), s)) {
          streams_[s].write_all(
              std::span<const std::uint8_t>(m.payload.data() + offset, len));
        }
      } catch (const TransportError& e) {
        errors[s] = e.what();
      }
    });
  }
  for (auto& t : writers) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw TransportError("striped send: " + e);
  }
}

soap::WireMessage StripedChannel::receive() {
  if (streams_.empty()) throw TransportError("striped channel not connected");

  std::uint8_t magic[4];
  streams_[0].read_exact(magic, sizeof(magic));
  if (std::memcmp(magic, kMessageMagic, sizeof(magic)) != 0) {
    throw TransportError("striped receive: bad message magic");
  }
  // Content-type length VLS: read byte by byte (nothing past it may be
  // consumed), then decoded by the shared VLS rule.
  std::uint8_t vls[kMaxVlsBytes];
  std::size_t vls_len = 0;
  do {
    if (vls_len == kMaxVlsBytes) throw TransportError("striped: malformed VLS");
    streams_[0].read_exact(&vls[vls_len], 1);
  } while ((vls[vls_len++] & 0x80) != 0);
  std::uint64_t ct_len = 0;
  try {
    ByteReader r(vls, vls_len);
    ct_len = vls_read(r);
  } catch (const DecodeError& e) {
    throw TransportError(std::string("striped: ") + e.what());
  }
  if (ct_len > 1024) throw TransportError("striped: content type too long");
  soap::WireMessage m;
  const auto ct = streams_[0].read_exact(static_cast<std::size_t>(ct_len));
  m.content_type.assign(reinterpret_cast<const char*>(ct.data()), ct.size());

  std::uint8_t len_be[8];
  streams_[0].read_exact(len_be, sizeof(len_be));
  const std::uint64_t payload_len =
      load<std::uint64_t>(len_be, ByteOrder::kBig);
  // Checked before sizing anything: a corrupt or hostile length never
  // reaches the allocator.
  if (payload_len > kDefaultMaxMessageBytes) {
    throw TransportError("striped: payload of " +
                         std::to_string(payload_len) +
                         " bytes exceeds the message limit");
  }
  m.payload.resize(static_cast<std::size_t>(payload_len));
  if (payload_len == 0) return m;

  if (streams_.size() == 1) {
    streams_[0].read_exact(m.payload.data(), m.payload.size());
    return m;
  }
  std::vector<std::thread> readers;
  std::vector<std::string> errors(streams_.size());
  readers.reserve(streams_.size());
  for (std::size_t s = 0; s < streams_.size(); ++s) {
    readers.emplace_back([this, s, &m, &errors] {
      try {
        for (const auto& [offset, len] :
             slices_for_stream(m.payload.size(), streams_.size(), s)) {
          streams_[s].read_exact(m.payload.data() + offset, len);
        }
      } catch (const TransportError& e) {
        errors[s] = e.what();
      }
    });
  }
  for (auto& t : readers) t.join();
  for (const auto& e : errors) {
    if (!e.empty()) throw TransportError("striped receive: " + e);
  }
  return m;
}

}  // namespace detail

StripedClientBinding::StripedClientBinding(std::uint16_t port, int streams)
    : port_(port), streams_(streams) {
  if (streams < 1 || streams > kMaxStripeStreams) {
    throw TransportError("stream count out of range");
  }
}

void StripedClientBinding::ensure_connected() {
  if (channel_.connected()) return;
  std::vector<TcpStream> streams;
  streams.reserve(static_cast<std::size_t>(streams_));
  for (int i = 0; i < streams_; ++i) {
    TcpStream s = TcpStream::connect(port_);
    s.set_io_stats(io_);
    s.set_no_delay(true);
    std::uint8_t hello[6] = {'B', 'X', 'S', 'P',
                             static_cast<std::uint8_t>(i),
                             static_cast<std::uint8_t>(streams_)};
    s.write_all(std::span<const std::uint8_t>(hello, sizeof(hello)));
    streams.push_back(std::move(s));
  }
  channel_ = detail::StripedChannel(std::move(streams));
}

void StripedClientBinding::send_request(soap::WireMessage m) {
  ensure_connected();
  channel_.send(m);
}

soap::WireMessage StripedClientBinding::receive_response() {
  if (!channel_.connected()) throw TransportError("not connected");
  return channel_.receive();
}

StripedServerBinding::StripedServerBinding()
    : state_(std::make_shared<State>()) {}

std::shared_ptr<detail::StripedChannel> StripedServerBinding::ensure_session() {
  if (auto existing = state_->current()) return existing;
  // Accept the first hello to learn the stream count, then the rest.
  std::vector<TcpStream> ordered;
  std::size_t expected = 0;
  std::size_t got = 0;
  do {
    TcpStream s = state_->listener.accept();
    s.set_io_stats(state_->io);
    s.set_no_delay(true);
    std::uint8_t hello[6];
    s.read_exact(hello, sizeof(hello));
    if (std::memcmp(hello, "BXSP", 4) != 0) {
      throw TransportError("striped accept: bad hello");
    }
    const std::size_t index = hello[4];
    const std::size_t total = hello[5];
    if (total == 0 || total > static_cast<std::size_t>(kMaxStripeStreams) ||
        index >= total) {
      throw TransportError("striped accept: bad stream index");
    }
    if (expected == 0) {
      expected = total;
      ordered.resize(expected);
    } else if (total != expected) {
      throw TransportError("striped accept: inconsistent stream count");
    }
    if (ordered[index].valid()) {
      throw TransportError("striped accept: duplicate stream index");
    }
    ordered[index] = std::move(s);
    ++got;
  } while (got < expected);
  auto channel =
      std::make_shared<detail::StripedChannel>(std::move(ordered));
  state_->set(channel);
  return channel;
}

soap::WireMessage StripedServerBinding::receive_request() {
  for (;;) {
    std::shared_ptr<detail::StripedChannel> channel = ensure_session();
    try {
      return channel->receive();
    } catch (const TransportError&) {
      // Client went away between exchanges; wait for the next session.
      state_->drop(channel);
    }
  }
}

void StripedServerBinding::send_response(soap::WireMessage m) {
  std::shared_ptr<detail::StripedChannel> channel = state_->current();
  if (channel == nullptr) throw TransportError("no client connected");
  channel->send(m);
}

}  // namespace bxsoap::transport
