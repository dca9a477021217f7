// Adaptive per-chunk compression for the BXTP transport.
//
// The paper's thesis is that encoding choice dominates SOAP performance on
// constrained links — and the right transform is workload- and
// link-dependent, so it must be negotiated and adaptive, not baked in.
// This layer sits between the framing and the codecs: the v3 Hello/Accept
// handshake carries a transform-set bitmask (each side offers, the server
// picks the intersection), and every Data chunk / v3 Message body then
// independently chooses a transform:
//
//   0 none               ship the bytes as-is
//   1 lzss               common/lzss over the payload (redundant text)
//   2 shuffle+delta+lzss byte-transpose + delta over fixed-width lanes
//                        first (common/shuffle), then lzss — the
//                        Blosc/HDF5 trick that makes packed IEEE arrays
//                        compressible
//
// Adaptivity is a sampled byte-histogram entropy probe: a few KiB from
// the middle of the payload decide whether compression can pay at all and
// whether the shuffle preconditioner helps (it does for smooth packed
// arrays, it hurts for text). Incompressible chunks ship plain with only
// the probe's cost — a histogram over <= probe_bytes bytes — added.
//
// Wire layout of a compressed body (a kCompressedData chunk body or a
// kCompressed v3 Message payload):
//
//   [transform u8]                  1 = lzss, 2 = shuffle+delta+lzss
//   transform 1: [lzss stream]
//   transform 2: [lane u8][lzss stream of the shuffled bytes]
//
// compress_append writes into a caller-provided (pooled) buffer and
// refuses to emit output that is not strictly smaller than the input, so
// the worst case is always "ship plain". decompress_body validates the
// transform id against the negotiated set and caps the declared
// decompressed size BEFORE allocating (decompressed-size bombs die in the
// lzss header check).
#pragma once

#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/buffer_pool.hpp"
#include "common/error.hpp"
#include "common/lzss.hpp"
#include "common/shuffle.hpp"
#include "obs/metrics.hpp"

namespace bxsoap::transport {

/// Per-frame transform id (the leading byte of a compressed body).
enum class Transform : std::uint8_t {
  kNone = 0,
  kLzss = 1,
  kShuffleLzss = 2,
};

/// Transform-set bitmask carried by the v3 Hello/Accept `transforms`
/// byte. `none` is always available and has no bit.
namespace transforms {
inline constexpr std::uint8_t kLzss = 0x01;
inline constexpr std::uint8_t kShuffleLzss = 0x02;
inline constexpr std::uint8_t kAll = kLzss | kShuffleLzss;
}  // namespace transforms

/// Optional obs counters (registry names `<prefix>.compress.*`); null
/// members are simply not recorded.
struct CompressStats {
  obs::Counter* chunks = nullptr;    ///< bodies shipped compressed
  obs::Counter* skipped = nullptr;   ///< bodies the probe (or no-gain) skipped
  obs::Counter* bytes_in = nullptr;  ///< plain bytes of compressed bodies
  obs::Counter* bytes_out = nullptr; ///< wire bytes of compressed bodies
  obs::Counter* ns = nullptr;        ///< CPU spent probing + transforming
};

/// The adaptivity heuristic's knobs (DESIGN.md §14).
struct CompressPolicy {
  /// Bodies below this never compress: the transform-id byte and the lzss
  /// header eat any win, and tiny RPCs are latency- not byte-bound.
  std::size_t min_bytes = 512;
  /// Skip when the sampled entropy exceeds this (bits/byte; 8.0 = random).
  double max_entropy_bits = 7.2;
  /// Sample size for the entropy probe, taken from the middle of the body.
  std::size_t probe_bytes = 4096;
  /// The shuffle preconditioner must beat the raw entropy by this margin
  /// (bits/byte) to be chosen over plain lzss.
  double shuffle_margin_bits = 0.5;
};

/// Shannon entropy of a byte sample, in bits per byte (0..8).
inline double entropy_bits(std::span<const std::uint8_t> data) {
  if (data.empty()) return 0.0;
  std::array<std::uint32_t, 256> hist{};
  for (const std::uint8_t b : data) ++hist[b];
  const double n = static_cast<double>(data.size());
  double h = 0.0;
  for (const std::uint32_t c : hist) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / n;
    h -= p * std::log2(p);
  }
  return h;
}

/// The probe's sample: up to `probe_bytes` contiguous bytes from the
/// middle of the body (the middle of a BXSA message is array data, not
/// header structure).
inline std::span<const std::uint8_t> probe_window(
    std::span<const std::uint8_t> data, std::size_t probe_bytes) {
  if (data.size() <= probe_bytes) return data;
  return data.subspan((data.size() - probe_bytes) / 2, probe_bytes);
}

/// Probe `payload`, pick a transform from the negotiated set `allowed`
/// (transforms:: bits), and append `[transform u8][transformed bytes]` to
/// `out` — but only when the result is strictly smaller than the payload.
/// Returns the transform used; kNone means nothing was appended and the
/// caller ships the plain payload. Scratch space comes from `pool`.
inline Transform compress_append(std::span<const std::uint8_t> payload,
                                 std::uint8_t allowed,
                                 const CompressPolicy& policy,
                                 BufferPool& pool,
                                 std::vector<std::uint8_t>& out,
                                 const CompressStats& stats) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto finish = [&](Transform used, std::size_t appended) {
    obs::add_elapsed_ns(stats.ns, t0);
    if (used == Transform::kNone) {
      if (stats.skipped != nullptr) stats.skipped->add();
    } else {
      if (stats.chunks != nullptr) stats.chunks->add();
      if (stats.bytes_in != nullptr) stats.bytes_in->add(payload.size());
      if (stats.bytes_out != nullptr) stats.bytes_out->add(appended);
    }
    return used;
  };

  if (allowed == 0 || payload.size() < policy.min_bytes) {
    return finish(Transform::kNone, 0);
  }

  // Probe: raw entropy, and (when shuffle is on the table) the best
  // shuffled-delta entropy across the packed-atom lane widths.
  const auto window = probe_window(payload, policy.probe_bytes);
  const double h_raw = entropy_bits(window);
  double h_shuffle = 8.0;
  std::size_t best_lane = 0;
  if ((allowed & transforms::kShuffleLzss) != 0) {
    std::vector<std::uint8_t> probe = pool.acquire(window.size());
    for (const std::size_t lane : {std::size_t{8}, std::size_t{4},
                                   std::size_t{2}}) {
      probe.clear();
      shuffle_delta(window, lane, probe);
      const double h = entropy_bits(probe);
      if (h < h_shuffle) {
        h_shuffle = h;
        best_lane = lane;
      }
    }
    pool.release(std::move(probe));
  }

  Transform choice = Transform::kNone;
  const bool lzss_ok = (allowed & transforms::kLzss) != 0;
  const bool shuffle_ok = best_lane != 0;
  if (shuffle_ok && h_shuffle <= policy.max_entropy_bits &&
      (h_shuffle + policy.shuffle_margin_bits < h_raw || !lzss_ok)) {
    choice = Transform::kShuffleLzss;
  } else if (lzss_ok && h_raw <= policy.max_entropy_bits) {
    choice = Transform::kLzss;
  }
  if (choice == Transform::kNone) return finish(Transform::kNone, 0);

  const std::size_t base = out.size();
  out.push_back(static_cast<std::uint8_t>(choice));
  if (choice == Transform::kShuffleLzss) {
    out.push_back(static_cast<std::uint8_t>(best_lane));
    std::vector<std::uint8_t> shuffled = pool.acquire(payload.size());
    shuffle_delta(payload, best_lane, shuffled);
    // TODO(perf): an appending lzss_compress would save this copy; today
    // the compressed bytes (already smaller than the payload) move once.
    const auto packed = lzss_compress(shuffled);
    out.insert(out.end(), packed.begin(), packed.end());
    pool.release(std::move(shuffled));
  } else {
    const auto packed = lzss_compress(payload);
    out.insert(out.end(), packed.begin(), packed.end());
  }
  const std::size_t appended = out.size() - base;
  if (appended >= payload.size()) {
    // The probe was optimistic; shipping plain is strictly better.
    out.resize(base);
    return finish(Transform::kNone, 0);
  }
  return finish(choice, appended);
}

/// Inverse of compress_append over one compressed body. Validates the
/// transform id against the negotiated set `allowed` and bounds the
/// decompressed size by `max_decoded` before allocating. Throws
/// TransportError on any violation (a compressed frame from a peer that
/// never negotiated one is a protocol breach: cut the connection). The
/// returned buffer is acquired from `pool`; release it there when done.
inline std::vector<std::uint8_t> decompress_body(
    std::span<const std::uint8_t> body, std::uint8_t allowed,
    std::size_t max_decoded, BufferPool& pool) {
  if (allowed == 0) {
    throw TransportError("compressed frame on a channel with no negotiated "
                         "transforms");
  }
  if (body.empty()) throw TransportError("compressed body too short");
  const auto id = static_cast<Transform>(body[0]);
  try {
    switch (id) {
      case Transform::kLzss: {
        if ((allowed & transforms::kLzss) == 0) break;
        return lzss_decompress(body.subspan(1), max_decoded, pool.acquire(0));
      }
      case Transform::kShuffleLzss: {
        if ((allowed & transforms::kShuffleLzss) == 0) break;
        if (body.size() < 2) {
          throw TransportError("compressed body too short");
        }
        const std::size_t lane = body[1];
        if (!shuffle_lane_valid(lane)) {
          throw TransportError("compressed frame: invalid shuffle lane");
        }
        std::vector<std::uint8_t> shuffled =
            lzss_decompress(body.subspan(2), max_decoded, pool.acquire(0));
        std::vector<std::uint8_t> out = pool.acquire(shuffled.size());
        unshuffle_delta(shuffled, lane, out);
        pool.release(std::move(shuffled));
        return out;
      }
      default:
        throw TransportError("compressed frame: unknown transform id " +
                             std::to_string(body[0]));
    }
  } catch (const DecodeError& e) {
    // Malformed compressed bytes are a transport-level breach of the
    // negotiated channel, not a codec-level decode failure.
    throw TransportError(std::string("compressed frame: ") + e.what());
  }
  throw TransportError("compressed frame: transform " +
                       std::to_string(body[0]) + " was not negotiated");
}

}  // namespace bxsoap::transport
