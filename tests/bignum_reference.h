// Slow, obviously-correct big-integer references for differential tests of
// aad::algorithms::BigUint.
//
// This is the golden modexp model as it stood before BigUint moved to
// word-level Knuth Algorithm D: binary long division that subtracts the
// largest aligned shift of the modulus one bit position at a time, and
// right-to-left square-and-multiply on top of it.  It keeps its own limb
// arithmetic and shares nothing with BigUint beyond the byte import/export
// used to cross over, so a bug in the fast path cannot cancel out here.
// Tests only; nothing in src/ may include it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "algorithms/bignum.h"

namespace aad::algorithms::reference {

/// Little-endian 32-bit limbs, no trailing zero limbs.
using Limbs = std::vector<std::uint32_t>;

inline void trim(Limbs& x) {
  while (!x.empty() && x.back() == 0) x.pop_back();
}

inline Limbs from_big(const BigUint& x) {
  const Bytes bytes = x.to_bytes((x.bit_length() + 7) / 8);
  Limbs out((bytes.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    out[i / 4] |= static_cast<std::uint32_t>(bytes[i]) << (8 * (i % 4));
  trim(out);
  return out;
}

inline BigUint to_big(const Limbs& x) {
  Bytes bytes(4 * x.size());
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<Byte>(x[i / 4] >> (8 * (i % 4)));
  return BigUint::from_bytes(bytes);
}

inline std::size_t bit_length(const Limbs& x) {
  if (x.empty()) return 0;
  std::size_t bits = x.size() * 32;
  for (std::uint32_t top = x.back(); !(top & 0x80000000u); top <<= 1) --bits;
  return bits;
}

inline bool bit(const Limbs& x, std::size_t index) {
  return index / 32 < x.size() && ((x[index / 32] >> (index % 32)) & 1u);
}

inline int compare(const Limbs& a, const Limbs& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  for (std::size_t i = a.size(); i-- > 0;)
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  return 0;
}

/// a - b for a >= b.
inline Limbs sub(const Limbs& a, const Limbs& b) {
  Limbs out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a[i]) - borrow;
    if (i < b.size()) diff -= b[i];
    borrow = diff < 0 ? 1 : 0;
    if (diff < 0) diff += std::int64_t{1} << 32;
    out[i] = static_cast<std::uint32_t>(diff);
  }
  trim(out);
  return out;
}

inline Limbs mul(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::uint64_t carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t cur =
          static_cast<std::uint64_t>(a[i]) * b[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    out[i + b.size()] += static_cast<std::uint32_t>(carry);
  }
  trim(out);
  return out;
}

inline Limbs shifted_left(const Limbs& x, std::size_t bits) {
  if (x.empty()) return {};
  const std::size_t limb_shift = bits / 32;
  const unsigned bit_shift = bits % 32;
  Limbs out(x.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i + limb_shift] |= x[i] << bit_shift;
    if (bit_shift != 0)
      out[i + limb_shift + 1] |= x[i] >> (32 - bit_shift);
  }
  trim(out);
  return out;
}

/// a mod m (m nonzero) by binary long division.
inline Limbs mod(const Limbs& a, const Limbs& m) {
  if (compare(a, m) < 0) return a;
  Limbs rem = a;
  const std::size_t shift_max = bit_length(a) - bit_length(m);
  for (std::size_t s = shift_max + 1; s-- > 0;) {
    const Limbs shifted = shifted_left(m, s);
    if (compare(rem, shifted) >= 0) rem = sub(rem, shifted);
  }
  return rem;
}

/// base^exponent mod modulus (modulus > 1), right-to-left.
inline Limbs mod_exp(const Limbs& base, const Limbs& exponent,
                     const Limbs& modulus) {
  Limbs result{1};
  Limbs acc = mod(base, modulus);
  const std::size_t bits = bit_length(exponent);
  for (std::size_t i = 0; i < bits; ++i) {
    if (bit(exponent, i)) result = mod(mul(result, acc), modulus);
    acc = mod(mul(acc, acc), modulus);
  }
  return result;
}

}  // namespace aad::algorithms::reference

namespace aad::algorithms {

inline BigUint reference_mul(const BigUint& a, const BigUint& b) {
  return reference::to_big(
      reference::mul(reference::from_big(a), reference::from_big(b)));
}

inline BigUint reference_mod(const BigUint& a, const BigUint& m) {
  return reference::to_big(
      reference::mod(reference::from_big(a), reference::from_big(m)));
}

inline BigUint reference_mod_exp(const BigUint& base, const BigUint& exponent,
                                 const BigUint& modulus) {
  return reference::to_big(reference::mod_exp(reference::from_big(base),
                                              reference::from_big(exponent),
                                              reference::from_big(modulus)));
}

}  // namespace aad::algorithms
