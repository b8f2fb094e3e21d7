// Tests-only CRC-32 references for differential testing of aad::Crc32.
//
// reference_crc32 is the definition itself: bit-at-a-time division by
// the reflected IEEE polynomial, with no tables at all.  bytewise_crc32 is
// the one-table-lookup-per-byte loop the library ran before slicing-by-8;
// the ratio gate (test_crc_ratio) times the library against it.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytebuffer.h"

namespace aad {

/// CRC-32 of `data`, one bit at a time.
inline std::uint32_t reference_crc32(ByteSpan data) noexcept {
  std::uint32_t state = 0xFFFFFFFFu;
  for (const Byte b : data) {
    state ^= b;
    for (int k = 0; k < 8; ++k)
      state = (state & 1u) ? (0xEDB88320u ^ (state >> 1)) : (state >> 1);
  }
  return state ^ 0xFFFFFFFFu;
}

/// The replaced library loop: one 256-entry table lookup per byte.
inline std::uint32_t bytewise_crc32(ByteSpan data) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t state = 0xFFFFFFFFu;
  for (const Byte b : data) state = table[(state ^ b) & 0xFFu] ^ (state >> 8);
  return state ^ 0xFFFFFFFFu;
}

}  // namespace aad
