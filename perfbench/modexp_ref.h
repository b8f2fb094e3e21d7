// Independent modular exponentiation for the benchmark's output check.
//
// The modexp kernel is behavioural: the card's MCU runs the same
// aad::algorithms::BigUint code the golden KernelSpec::software calls, so
// comparing the two proves nothing about BigUint itself.  This file shares
// no code with aad::algorithms.  It works on fixed-width little-endian
// 32-bit limbs: Montgomery multiplication (CIOS) for odd moduli, and a
// plain double-and-add modular multiply for even ones.
//
// Byte contract (the kernel's): input = base || exponent || modulus, each
// `width` = size/3 bytes little-endian; output = the result in `width`
// bytes.  The modulus must exceed 1.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace perfbench {

namespace modexp_detail {

using Limbs = std::vector<std::uint32_t>;

inline bool geq(const Limbs& a, const Limbs& b) {
  for (std::size_t i = a.size(); i-- > 0;)
    if (a[i] != b[i]) return a[i] > b[i];
  return true;
}

/// a -= b (a >= b, or a carries an extra top bit the caller accounts for).
inline void sub_in_place(Limbs& a, const Limbs& b) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::uint64_t d = std::uint64_t{a[i]} - b[i] - borrow;
    a[i] = static_cast<std::uint32_t>(d);
    borrow = (d >> 63) & 1u;
  }
}

/// x = (2x + bit) mod m, for x < m.
inline void double_add_mod(Limbs& x, bool bit, const Limbs& m) {
  std::uint32_t carry = bit ? 1u : 0u;
  for (std::uint32_t& limb : x) {
    const std::uint32_t top = limb >> 31;
    limb = (limb << 1) | carry;
    carry = top;
  }
  if (carry != 0 || geq(x, m)) sub_in_place(x, m);
}

/// x = (x + y) mod m, for x, y < m.
inline void add_mod(Limbs& x, const Limbs& y, const Limbs& m) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const std::uint64_t s = std::uint64_t{x[i]} + y[i] + carry;
    x[i] = static_cast<std::uint32_t>(s);
    carry = s >> 32;
  }
  if (carry != 0 || geq(x, m)) sub_in_place(x, m);
}

inline bool bit_of(const Limbs& x, std::size_t i) {
  return (x[i / 32] >> (i % 32)) & 1u;
}

/// v mod m for any v of the same width, one bit at a time.
inline Limbs reduce(const Limbs& v, const Limbs& m) {
  Limbs r(m.size(), 0);
  for (std::size_t i = 32 * v.size(); i-- > 0;)
    double_add_mod(r, bit_of(v, i), m);
  return r;
}

/// a * b mod m by double-and-add (any m > 1; a, b < m).
inline Limbs mul_mod_plain(const Limbs& a, const Limbs& b, const Limbs& m) {
  Limbs r(m.size(), 0);
  for (std::size_t i = 32 * b.size(); i-- > 0;) {
    double_add_mod(r, false, m);
    if (bit_of(b, i)) add_mod(r, a, m);
  }
  return r;
}

/// Montgomery product a * b * 2^(-32n) mod m (odd m; a, b < m).
inline Limbs mont_mul(const Limbs& a, const Limbs& b, const Limbs& m,
                      std::uint32_t m_inv_neg) {
  const std::size_t n = m.size();
  std::vector<std::uint32_t> t(n + 2, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t c = 0;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint64_t s = std::uint64_t{t[j]} + std::uint64_t{a[j]} * b[i] + c;
      t[j] = static_cast<std::uint32_t>(s);
      c = s >> 32;
    }
    std::uint64_t s = std::uint64_t{t[n]} + c;
    t[n] = static_cast<std::uint32_t>(s);
    t[n + 1] = static_cast<std::uint32_t>(s >> 32);

    const std::uint32_t q = t[0] * m_inv_neg;
    c = (std::uint64_t{t[0]} + std::uint64_t{q} * m[0]) >> 32;
    for (std::size_t j = 1; j < n; ++j) {
      s = std::uint64_t{t[j]} + std::uint64_t{q} * m[j] + c;
      t[j - 1] = static_cast<std::uint32_t>(s);
      c = s >> 32;
    }
    s = std::uint64_t{t[n]} + c;
    t[n - 1] = static_cast<std::uint32_t>(s);
    t[n] = t[n + 1] + static_cast<std::uint32_t>(s >> 32);
  }
  Limbs r(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(n));
  if (t[n] != 0 || geq(r, m)) sub_in_place(r, m);
  return r;
}

inline Limbs limbs_of(const std::uint8_t* p, std::size_t width,
                      std::size_t n) {
  Limbs x(n, 0);
  for (std::size_t i = 0; i < width; ++i)
    x[i / 4] |= std::uint32_t{p[i]} << (8 * (i % 4));
  return x;
}

}  // namespace modexp_detail

/// base^exponent mod modulus over the kernel's byte contract.
inline std::vector<std::uint8_t> reference_modexp(
    const std::vector<std::uint8_t>& input) {
  using namespace modexp_detail;
  if (input.empty() || input.size() % 3 != 0)
    throw std::invalid_argument("modexp input must be base||exp||modulus");
  const std::size_t width = input.size() / 3;
  const std::size_t n = (width + 3) / 4;
  const Limbs base = limbs_of(input.data(), width, n);
  const Limbs exponent = limbs_of(input.data() + width, width, n);
  const Limbs m = limbs_of(input.data() + 2 * width, width, n);
  Limbs two(n, 0);
  two[0] = 2;
  if (!geq(m, two)) throw std::invalid_argument("modulus must exceed 1");

  Limbs one(n, 0);
  one[0] = 1;
  const Limbs b = reduce(base, m);
  std::size_t top = 32 * n;
  while (top > 0 && !bit_of(exponent, top - 1)) --top;

  Limbs result;
  if ((m[0] & 1u) != 0) {
    // -m^-1 mod 2^32 by Newton iteration (each step doubles the good bits).
    std::uint32_t inv = 1;
    for (int i = 0; i < 5; ++i) inv *= 2u - m[0] * inv;
    const std::uint32_t m_inv_neg = 0u - inv;
    // R = 2^(32n): R mod m and R^2 mod m by repeated doubling.
    Limbs r_mod = reduce(one, m);
    for (std::size_t i = 0; i < 32 * n; ++i) double_add_mod(r_mod, false, m);
    Limbs r2 = r_mod;
    for (std::size_t i = 0; i < 32 * n; ++i) double_add_mod(r2, false, m);
    const Limbs b_mont = mont_mul(b, r2, m, m_inv_neg);
    Limbs acc = r_mod;  // 1 in Montgomery form
    for (std::size_t i = top; i-- > 0;) {
      acc = mont_mul(acc, acc, m, m_inv_neg);
      if (bit_of(exponent, i)) acc = mont_mul(acc, b_mont, m, m_inv_neg);
    }
    result = mont_mul(acc, one, m, m_inv_neg);
  } else {
    result = reduce(one, m);
    for (std::size_t i = top; i-- > 0;) {
      result = mul_mod_plain(result, result, m);
      if (bit_of(exponent, i)) result = mul_mod_plain(result, b, m);
    }
  }

  std::vector<std::uint8_t> out(width, 0);
  for (std::size_t i = 0; i < width; ++i)
    out[i] = static_cast<std::uint8_t>(result[i / 4] >> (8 * (i % 4)));
  return out;
}

}  // namespace perfbench
