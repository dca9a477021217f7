// The bench's own timings of single layers' public functions (bxsa, xml,
// transport framing, common), over the exact inputs a workload sends.
#pragma once

#include "workloads.hpp"

namespace perfbench {

struct LayerTimings {
  double dict_encode_us = 0;     // DictEncoder, per message
  double dict_decode_us = 0;     // DictDecoder, per message
  double bxsa_encode_mib_s = 0;  // BxsaEncoding::serialize_into
  double bxsa_decode_mib_s = 0;  // BxsaEncoding::deserialize_shared
  double xml_encode_mib_s = 0;   // XmlEncoding::serialize_into
  double xml_decode_mib_s = 0;   // XmlEncoding::deserialize_shared
  double xml_bytes_per_native_byte = 0;
  double frame_decode_us = 0;         // FrameAssembler feed/take, per message
  double frame_blocking_read_us = 0;  // blocking read_frame, per message
  double hmac_mib_s = 0;              // HMAC-SHA-256 authenticator update
};

/// Throughputs are native dataset MiB per second, comparable with
/// goodput_mib_s (HMAC: MiB of payload authenticated). Each timing repeats
/// until it has run `min_seconds`.
LayerTimings time_layers(const LayerInputs& in, double min_seconds);

}  // namespace perfbench
