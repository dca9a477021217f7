// Seeded structure-blind mutations for the chaos suites: bit flips,
// byte overwrites, truncations, range erases, 0x00/0xFF fills (hostile VLS
// continuations) and splices. Every mutant reproduces from its seed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/prng.hpp"

namespace bxsoap {

/// One to four rounds of mutation, each drawn from `rng`.
inline std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes,
                                        SplitMix64& rng) {
  const std::size_t rounds = 1 + rng.next_below(4);
  for (std::size_t round = 0; round < rounds && !bytes.empty(); ++round) {
    switch (rng.next_below(6)) {
      case 0: {  // flip one bit
        const std::size_t i = rng.next_below(bytes.size());
        bytes[i] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        break;
      }
      case 1: {  // overwrite one byte
        bytes[rng.next_below(bytes.size())] =
            static_cast<std::uint8_t>(rng.next());
        break;
      }
      case 2:  // truncate
        bytes.resize(rng.next_below(bytes.size() + 1));
        break;
      case 3: {  // erase a range
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(16, bytes.size() - from));
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(from),
                    bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        break;
      }
      case 4: {  // fill a range (0x00 or 0xFF — hostile VLS continuations)
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(8, bytes.size() - from));
        const std::uint8_t v = rng.next_bool() ? 0xFF : 0x00;
        std::fill_n(bytes.begin() + static_cast<std::ptrdiff_t>(from), len, v);
        break;
      }
      default: {  // splice: duplicate a slice somewhere else
        const std::size_t from = rng.next_below(bytes.size());
        const std::size_t len =
            1 + rng.next_below(std::min<std::size_t>(12, bytes.size() - from));
        const std::vector<std::uint8_t> slice(
            bytes.begin() + static_cast<std::ptrdiff_t>(from),
            bytes.begin() + static_cast<std::ptrdiff_t>(from + len));
        const std::size_t at = rng.next_below(bytes.size() + 1);
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     slice.begin(), slice.end());
        break;
      }
    }
  }
  return bytes;
}

}  // namespace bxsoap
