// Minimal unsigned big-integer arithmetic for the modular-exponentiation
// kernel (RSA-style workloads — the algorithm-agile crypto co-processors the
// paper builds on, refs [1][2], were motivated by exactly this).
//
// Little-endian 32-bit limbs with 64-bit intermediates, worked a whole word
// at a time.  `mod` is Knuth's Algorithm D (TAOCP vol. 2, §4.3.1).
// `mod_exp` is left-to-right square-and-multiply over a 4-bit window, with
// product-scanned (Comba) squaring and multiplication and Barrett reduction
// (mu found once per call with Algorithm D); all of its scratch limbs are
// allocated once per call, so the exponent loop never allocates.  One path
// serves every modulus, odd or even.  The card's MCU runs this model on
// every behavioural modexp request, which makes it the simulator's host-time
// hot spot.  The slow bit-at-a-time reference it is differentially tested
// against (and must stay >= 50x faster than) lives in
// tests/bignum_reference.h.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytebuffer.h"

namespace aad::algorithms {

class BigUint {
 public:
  BigUint() = default;
  explicit BigUint(std::uint64_t value);
  /// Little-endian byte import/export.
  static BigUint from_bytes(ByteSpan data);
  Bytes to_bytes(std::size_t width_bytes) const;

  bool is_zero() const noexcept { return limbs_.empty(); }
  std::size_t bit_length() const noexcept;
  bool bit(std::size_t index) const noexcept;

  static int compare(const BigUint& a, const BigUint& b) noexcept;
  bool operator==(const BigUint& other) const noexcept {
    return limbs_ == other.limbs_;
  }

  static BigUint add(const BigUint& a, const BigUint& b);
  /// a - b; requires a >= b.
  static BigUint sub(const BigUint& a, const BigUint& b);
  static BigUint mul(const BigUint& a, const BigUint& b);
  /// a mod m; m must be nonzero.
  static BigUint mod(const BigUint& a, const BigUint& m);

  /// base^exponent mod modulus (square-and-multiply); modulus > 1.
  static BigUint mod_exp(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus);

 private:
  void trim();
  std::vector<std::uint32_t> limbs_;  // little-endian, no trailing zeros
};

/// Behavioral-kernel byte contract: input = base || exponent || modulus,
/// each `width` = input.size()/3 bytes little-endian; output = result,
/// `width` bytes.  Throws unless the size divides evenly and modulus > 1.
Bytes modexp_bytes(ByteSpan input);

}  // namespace aad::algorithms
