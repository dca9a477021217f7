#include "layers.hpp"

#include <cstring>
#include <optional>

#include "bxsa/dict.hpp"
#include "common/buffer_pool.hpp"
#include "soap/encoding.hpp"
#include "soap/security.hpp"
#include "transport/framing.hpp"

namespace perfbench {

namespace {

using namespace bxsoap;
using transport::FrameLimits;

constexpr double kMiB = 1024.0 * 1024.0;

/// Seconds per call of `op`, repeated until `min_seconds` have passed.
template <typename Op>
double seconds_per_call(Op&& op, double min_seconds) {
  std::size_t calls = 0;
  const auto start = Clock::now();
  double elapsed = 0;
  do {
    op();
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

/// Read side of an in-memory wire: the blocking parsers read it exactly as
/// they read a socket.
class WireReader {
 public:
  explicit WireReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}
  void write_all(std::span<const std::uint8_t>) {
    throw TransportError("write on a read-only wire");
  }
  void read_exact(std::uint8_t* out, std::size_t n) {
    if (n > bytes_.size() - at_) throw TransportError("wire exhausted");
    std::memcpy(out, bytes_.data() + at_, n);
    at_ += n;
  }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
};

/// The request frames exactly as the workload's channel puts them on the
/// wire (one frame per message).
std::vector<std::vector<std::uint8_t>> request_frames(const LayerInputs& in) {
  std::vector<std::vector<std::uint8_t>> frames;
  switch (in.framing) {
    case LayerInputs::Framing::kV1: {
      // The v1 frame carries the workload's own encoding of the request.
      std::vector<std::uint8_t> payload;
      if (in.content_type == soap::XmlEncoding::content_type()) {
        payload = soap::XmlEncoding{}.serialize(*in.document);
      } else {
        payload = in.bxsa_messages.front();
      }
      ByteWriter w;
      const std::size_t len_pos = transport::begin_frame(w, in.content_type);
      w.write_bytes(payload);
      transport::end_frame(w, len_pos);
      frames.push_back(w.take());
      break;
    }
    case LayerInputs::Framing::kV3Dict: {
      std::optional<bxsa::DictEncoder> dict(bxsa::DictLimits{});
      for (const auto& m : in.bxsa_messages) {
        ByteWriter w;
        transport::frame_v3_payload(w, m, in.content_type, dict);
        frames.push_back(w.take());
      }
      break;
    }
  }
  return frames;
}

/// FrameAssembler over every frame, fed in one call per frame as the
/// reactor would after a large read.
void assemble_all(const LayerInputs& in,
                  const std::vector<std::vector<std::uint8_t>>& frames,
                  BufferPool& pool) {
  const bool v3 = in.framing == LayerInputs::Framing::kV3Dict;
  transport::FrameAssembler a(FrameLimits{}, &pool, v3);
  for (const auto& f : frames) {
    std::span<const std::uint8_t> rest(f);
    while (!rest.empty()) {
      rest = rest.subspan(a.feed(rest));
      if (a.ready()) pool.release(a.take().payload);
    }
  }
}

/// The blocking parser over every frame, as TcpClientBinding reads them.
void read_all(const LayerInputs& in,
              const std::vector<std::vector<std::uint8_t>>& frames,
              BufferPool& pool) {
  const bool v3 = in.framing == LayerInputs::Framing::kV3Dict;
  for (const auto& f : frames) {
    WireReader wire(f);
    transport::FrameStart start =
        transport::read_frame_start(wire, FrameLimits{}, v3);
    pool.release(
        transport::read_frame_body(wire, std::move(start), FrameLimits{}, &pool)
            .payload);
  }
}

}  // namespace

LayerTimings time_layers(const LayerInputs& in, double min_seconds) {
  LayerTimings t;
  BufferPool pool;
  const double messages = static_cast<double>(in.bxsa_messages.size());
  const double native_mib = static_cast<double>(in.native_bytes) / kMiB;

  // ---- bxsa: the symbol dictionary over one channel's message stream ----
  std::vector<std::vector<std::uint8_t>> coded;
  std::vector<bool> resets;
  {
    bxsa::DictEncoder enc(bxsa::DictLimits{});
    for (const auto& m : in.bxsa_messages) {
      ByteWriter w;
      resets.push_back(enc.encode(m, w));
      coded.push_back(w.take());
    }
  }
  t.dict_encode_us = 1e6 / messages * seconds_per_call([&] {
    bxsa::DictEncoder enc(bxsa::DictLimits{});
    for (const auto& m : in.bxsa_messages) {
      ByteWriter w(pool.acquire(m.size() + 64));
      enc.encode(m, w);
      pool.release(w.take());
    }
  }, min_seconds);
  t.dict_decode_us = 1e6 / messages * seconds_per_call([&] {
    bxsa::DictDecoder dec(bxsa::DictLimits{});
    for (std::size_t i = 0; i < coded.size(); ++i) {
      ByteWriter w(pool.acquire(in.bxsa_messages[i].size() + 64));
      dec.decode(coded[i], resets[i], w);
      pool.release(w.take());
    }
  }, min_seconds);

  // ---- bxsa and xml codecs on the first request --------------------------
  const soap::BxsaEncoding bxsa_enc;
  const soap::XmlEncoding xml_enc;
  t.bxsa_encode_mib_s = native_mib / seconds_per_call([&] {
    ByteWriter w(pool.acquire(in.bxsa_messages.front().size()));
    bxsa_enc.serialize_into(*in.document, w);
    pool.release(w.take());
  }, min_seconds);
  const SharedBuffer bxsa_wire =
      SharedBuffer::adopt(std::vector<std::uint8_t>(in.bxsa_messages.front()));
  t.bxsa_decode_mib_s = native_mib / seconds_per_call([&] {
    (void)bxsa_enc.deserialize_shared(bxsa_wire);
  }, min_seconds);

  const std::vector<std::uint8_t> xml_bytes = xml_enc.serialize(*in.document);
  t.xml_bytes_per_native_byte = static_cast<double>(xml_bytes.size()) /
                                static_cast<double>(in.native_bytes);
  t.xml_encode_mib_s = native_mib / seconds_per_call([&] {
    ByteWriter w(pool.acquire(xml_bytes.size()));
    xml_enc.serialize_into(*in.document, w);
    pool.release(w.take());
  }, min_seconds);
  const SharedBuffer xml_wire =
      SharedBuffer::adopt(std::vector<std::uint8_t>(xml_bytes));
  t.xml_decode_mib_s = native_mib / seconds_per_call([&] {
    (void)xml_enc.deserialize_shared(xml_wire);
  }, min_seconds);

  // ---- transport framing: both parsers over the request frames ----------
  const std::vector<std::vector<std::uint8_t>> frames = request_frames(in);
  const double per_frame = 1e6 / static_cast<double>(frames.size());
  t.frame_decode_us = per_frame * seconds_per_call(
                                      [&] { assemble_all(in, frames, pool); },
                                      min_seconds);
  t.frame_blocking_read_us =
      per_frame *
      seconds_per_call([&] { read_all(in, frames, pool); }, min_seconds);

  // ---- common: HMAC-SHA-256 over the request payload bytes --------------
  std::size_t mac_bytes = 0;
  for (const auto& m : in.bxsa_messages) mac_bytes += m.size();
  auto auth = soap::make_hmac_stream_auth("perfbench-layer-key")
                  .make(transport::authalgs::kHmacSha256);
  std::uint8_t tag[transport::kMaxAuthTagBytes];
  t.hmac_mib_s = static_cast<double>(mac_bytes) / kMiB / seconds_per_call([&] {
    auth->init();
    for (const auto& m : in.bxsa_messages) auth->update(m);
    auth->finalize({tag, auth->tag_size()});
  }, min_seconds);
  return t;
}

}  // namespace perfbench
