#include "algorithms/bignum.h"

#include <algorithm>
#include <bit>

#include "common/error.h"

namespace aad::algorithms {

namespace {

using Limb = std::uint32_t;
using Wide = std::uint64_t;
constexpr Wide kLimbMask = 0xFFFFFFFFu;

/// Running sum of one output column of partial products: acc + over * 2^64.
/// Product scanning (Comba) sums a whole column before carrying, so the
/// inner loops carry no dependency through a per-limb carry word.
struct Column {
  Wide acc = 0;
  Wide over = 0;

  void add(Wide p) {
    acc += p;
    over += acc < p;
  }
  /// Emit the column's low limb and carry the rest into the next column.
  Limb emit() {
    const Limb low = static_cast<Limb>(acc);
    acc = (acc >> 32) | (over << 32);
    over = 0;
    return low;
  }
};

/// out[0..end-begin) = limbs [begin, end) of a[0..na) * b[0..nb), for
/// end <= na + nb; out aliases neither input.  With begin > 0 the columns
/// below begin are skipped, carries included, so the result can undershoot
/// floor(a * b / 2^(32 begin)) by at most min(na, nb) * 2^32.
void mul_limbs(const Limb* a, std::size_t na, const Limb* b, std::size_t nb,
               Limb* out, std::size_t begin, std::size_t end) {
  Column column;
  for (std::size_t k = begin; k < end; ++k) {
    const std::size_t last = std::min(k, na - 1);
    for (std::size_t i = k >= nb ? k - nb + 1 : 0; i <= last; ++i)
      column.add(Wide{a[i]} * b[k - i]);
    out[k - begin] = column.emit();
  }
}

/// out[0..2n) = a[0..n)^2: each cross product a[i]*a[k-i] is computed once
/// and doubled, so squaring costs about half a multiply.
void sqr_limbs(const Limb* a, std::size_t n, Limb* out) {
  Column column;
  for (std::size_t k = 0; k < 2 * n; ++k) {
    Column cross;
    for (std::size_t i = k >= n ? k - n + 1 : 0; 2 * i < k; ++i)
      cross.add(Wide{a[i]} * a[k - i]);
    column.add(cross.acc << 1);
    column.over += (cross.over << 1) | (cross.acc >> 63);
    if (k % 2 == 0) column.add(Wide{a[k / 2]} * a[k / 2]);
    out[k] = column.emit();
  }
}

/// out[0..n) = a[0..n) << s for s < 32, returning the bits shifted out of
/// the top limb.  out may alias a (the walk runs top down).
Limb shl_limbs(const Limb* a, std::size_t n, unsigned s, Limb* out) {
  const auto spill = [s](Limb x) -> Limb { return s ? x >> (32 - s) : 0; };
  const Limb top = spill(a[n - 1]);
  for (std::size_t i = n - 1; i > 0; --i)
    out[i] = (a[i] << s) | spill(a[i - 1]);
  out[0] = a[0] << s;
  return top;
}

/// out[0..n) = a[0..n) - b[0..n) mod 2^(32n), returning the borrow out of
/// the top limb.  out may alias a or b.
Limb sub_limbs(const Limb* a, const Limb* b, std::size_t n, Limb* out) {
  Wide borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Wide d = Wide{a[i]} - b[i] - borrow;
    out[i] = static_cast<Limb>(d);
    borrow = d >> 63;
  }
  return static_cast<Limb>(borrow);
}

/// Knuth, TAOCP vol. 2, §4.3.1, Algorithm D.  Divides a[0..len) by
/// m[0..n) (top limb nonzero, len >= n): rem[0..n) gets the remainder and,
/// unless quotient is null, quotient[0..len-n+1) the quotient.  With n == 1
/// there is no second divisor limb and the qhat estimate is already exact.
void divide(const Limb* a, std::size_t len, const Limb* m, std::size_t n,
            Limb* rem, Limb* quotient) {
  // D1: shift both operands so the divisor's top bit is set; the dividend
  // gains a limb.
  const unsigned s = static_cast<unsigned>(std::countl_zero(m[n - 1]));
  std::vector<Limb> v(n);
  std::vector<Limb> u(len + 1);
  shl_limbs(m, n, s, v.data());
  u[len] = shl_limbs(a, len, s, u.data());
  const Wide vtop = v[n - 1];
  const Wide vnext = n >= 2 ? v[n - 2] : 0;
  for (std::size_t j = len + 1 - n; j-- > 0;) {
    // D3: estimate the quotient limb from the top two dividend limbs and
    // refine it with the next; qhat is then exact or one too large.
    const Wide num = (Wide{u[j + n]} << 32) | u[j + n - 1];
    Wide qhat = num / vtop;
    Wide rhat = num % vtop;
    const Wide unext = n >= 2 ? u[j + n - 2] : 0;
    while (qhat > kLimbMask || qhat * vnext > ((rhat << 32) | unext)) {
      --qhat;
      rhat += vtop;
      if (rhat > kLimbMask) break;
    }
    // D4: u[j..j+n] -= qhat * v.
    Wide carry = 0;
    Wide borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const Wide p = qhat * v[i] + carry;
      carry = p >> 32;
      const Wide d = Wide{u[i + j]} - static_cast<Limb>(p) - borrow;
      u[i + j] = static_cast<Limb>(d);
      borrow = d >> 63;
    }
    const Wide top = Wide{u[j + n]} - carry - borrow;
    u[j + n] = static_cast<Limb>(top);
    // D5/D6: the subtraction went negative, so qhat was one too large (a
    // ~2/2^32 event on random limbs): add one v back.
    if (top >> 63) {
      --qhat;
      carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Wide sum = Wide{u[i + j]} + v[i] + carry;
        u[i + j] = static_cast<Limb>(sum);
        carry = sum >> 32;
      }
      u[j + n] += static_cast<Limb>(carry);
    }
    if (quotient != nullptr) quotient[j] = static_cast<Limb>(qhat);
  }
  // D8: unnormalize the remainder.
  for (std::size_t i = 0; i < n; ++i)
    rem[i] = s ? (u[i] >> s) | (u[i + 1] << (32 - s)) : u[i];
}

/// Barrett reduction (HAC 14.42) modulo a fixed m: mu = floor(2^(64n) / m)
/// is found once with Algorithm D, after which each reduction is two
/// product-scanned multiplies and at most three subtractions of m.
class BarrettModulus {
 public:
  explicit BarrettModulus(const std::vector<Limb>& m)
      : m_(m), mu_(m.size() + 2) {
    const std::size_t n = m.size();
    std::vector<Limb> power(2 * n + 1, 0);
    power[2 * n] = 1;
    std::vector<Limb> rem(n);
    divide(power.data(), power.size(), m.data(), n, rem.data(), mu_.data());
    // mu has n + 2 limbs only for m = 2^(32(n-1)); trim the usual top zero.
    if (mu_.back() == 0) mu_.pop_back();
  }

  std::size_t limbs() const noexcept { return m_.size(); }
  /// Scratch limbs reduce() needs.
  std::size_t scratch_limbs() const noexcept {
    return mu_.size() + m_.size() + 3;
  }

  /// out[0..n) = x[0..2n) mod m, for x < m^2.
  void reduce(const Limb* x, Limb* out, Limb* scratch) const {
    const std::size_t n = m_.size();
    const std::size_t mu_n = mu_.size();
    // q = floor(floor(x / B^(n-1)) * mu / B^(n+1)) undershoots x / m by at
    // most 2, and x < m^2 keeps it below B^n.  Only the product's columns
    // from n-1 up are summed, which costs q at most one more.
    Limb* const q = scratch;
    mul_limbs(x + n - 1, n + 1, mu_.data(), mu_n, q, n - 1, n + 1 + mu_n);
    // r = (x - q * m) mod B^(n+1), which is the true x - q * m < 4m.
    Limb* const r = scratch + 2 + mu_n;
    mul_limbs(q + 2, n, m_.data(), n, r, 0, n + 1);
    sub_limbs(x, r, n + 1, r);
    for (int fixes = 0; !below_m(r); ++fixes) {
      AAD_CHECK(fixes < 3, "Barrett estimate fell short by more than 3m");
      r[n] -= sub_limbs(r, m_.data(), n, r);
    }
    std::copy(r, r + n, out);
  }

 private:
  /// r[0..n] < m.
  bool below_m(const Limb* r) const {
    const std::size_t n = m_.size();
    if (r[n] != 0) return false;
    for (std::size_t i = n; i-- > 0;)
      if (r[i] != m_[i]) return r[i] < m_[i];
    return false;
  }

  std::vector<Limb> m_;
  std::vector<Limb> mu_;
};

}  // namespace

BigUint::BigUint(std::uint64_t value) {
  if (value != 0) limbs_.push_back(static_cast<std::uint32_t>(value));
  if (value >> 32) limbs_.push_back(static_cast<std::uint32_t>(value >> 32));
}

void BigUint::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigUint BigUint::from_bytes(ByteSpan data) {
  BigUint out;
  out.limbs_.resize((data.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < data.size(); ++i)
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(data[i]) << (8 * (i % 4));
  out.trim();
  return out;
}

Bytes BigUint::to_bytes(std::size_t width_bytes) const {
  Bytes out(width_bytes, 0);
  for (std::size_t i = 0; i < width_bytes && i / 4 < limbs_.size(); ++i)
    out[i] = static_cast<Byte>(limbs_[i / 4] >> (8 * (i % 4)));
  return out;
}

std::size_t BigUint::bit_length() const noexcept {
  if (limbs_.empty()) return 0;
  return limbs_.size() * 32 -
         static_cast<std::size_t>(std::countl_zero(limbs_.back()));
}

bool BigUint::bit(std::size_t index) const noexcept {
  const std::size_t limb = index / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (index % 32)) & 1u;
}

int BigUint::compare(const BigUint& a, const BigUint& b) noexcept {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (std::size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigUint BigUint::add(const BigUint& a, const BigUint& b) {
  BigUint out;
  const std::size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < a.limbs_.size()) sum += a.limbs_[i];
    if (i < b.limbs_.size()) sum += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigUint BigUint::sub(const BigUint& a, const BigUint& b) {
  AAD_REQUIRE(compare(a, b) >= 0, "BigUint::sub would underflow");
  BigUint out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += (std::int64_t{1} << 32);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigUint BigUint::mul(const BigUint& a, const BigUint& b) {
  if (a.is_zero() || b.is_zero()) return BigUint{};
  BigUint out;
  out.limbs_.resize(a.limbs_.size() + b.limbs_.size());
  mul_limbs(a.limbs_.data(), a.limbs_.size(), b.limbs_.data(),
            b.limbs_.size(), out.limbs_.data(), 0, out.limbs_.size());
  out.trim();
  return out;
}

BigUint BigUint::mod(const BigUint& a, const BigUint& m) {
  AAD_REQUIRE(!m.is_zero(), "modulus must be nonzero");
  if (compare(a, m) < 0) return a;
  BigUint out;
  out.limbs_.resize(m.limbs_.size());
  divide(a.limbs_.data(), a.limbs_.size(), m.limbs_.data(), m.limbs_.size(),
         out.limbs_.data(), nullptr);
  out.trim();
  return out;
}

BigUint BigUint::mod_exp(const BigUint& base, const BigUint& exponent,
                         const BigUint& modulus) {
  AAD_REQUIRE(compare(modulus, BigUint{1}) > 0, "modulus must exceed 1");
  const BarrettModulus m(modulus.limbs_);
  const std::size_t n = m.limbs();
  // Left-to-right square-and-multiply, kWindowBits exponent bits at a time
  // against a table of base^d mod m for every window value d.  All scratch
  // is allocated here, once per call: the running result, the table, a
  // double-width product and the reduction's workspace.
  constexpr std::size_t kWindowBits = 4;
  constexpr std::size_t kTable = std::size_t{1} << kWindowBits;
  std::vector<Limb> scratch((kTable + 3) * n + m.scratch_limbs(), 0);
  Limb* const result = scratch.data();
  Limb* const table = result + n;
  Limb* const product = table + kTable * n;
  Limb* const workspace = product + 2 * n;
  const auto power = [&](std::size_t d) { return table + d * n; };
  const BigUint reduced = mod(base, modulus);
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), power(1));
  for (std::size_t d = 2; d < kTable; ++d) {
    mul_limbs(power(d - 1), n, power(1), n, product, 0, 2 * n);
    m.reduce(product, power(d), workspace);
  }
  result[0] = 1;
  const std::size_t windows =
      (exponent.bit_length() + kWindowBits - 1) / kWindowBits;
  for (std::size_t w = windows; w-- > 0;) {
    std::size_t d = 0;
    for (std::size_t k = kWindowBits; k-- > 0;) {
      sqr_limbs(result, n, product);
      m.reduce(product, result, workspace);
      d = (d << 1) | (exponent.bit(w * kWindowBits + k) ? 1 : 0);
    }
    if (d != 0) {
      mul_limbs(result, n, power(d), n, product, 0, 2 * n);
      m.reduce(product, result, workspace);
    }
  }
  BigUint out;
  out.limbs_.assign(result, result + n);
  out.trim();
  return out;
}

Bytes modexp_bytes(ByteSpan input) {
  AAD_REQUIRE(input.size() % 3 == 0 && input.size() > 0,
              "modexp payload must be base||exponent||modulus");
  const std::size_t width = input.size() / 3;
  const BigUint base = BigUint::from_bytes(input.subspan(0, width));
  const BigUint exponent = BigUint::from_bytes(input.subspan(width, width));
  const BigUint modulus = BigUint::from_bytes(input.subspan(2 * width, width));
  AAD_REQUIRE(BigUint::compare(modulus, BigUint{1}) > 0,
              "modexp modulus must exceed 1");
  return BigUint::mod_exp(base, exponent, modulus).to_bytes(width);
}

}  // namespace aad::algorithms
