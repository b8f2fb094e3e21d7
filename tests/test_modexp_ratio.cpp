// In-process speed gate for the golden modexp model: BigUint::mod_exp must
// stay at least 50x faster than the bit-at-a-time reference it replaced
// (tests/bignum_reference.h) on the same 1536-bit operands.  Both run in
// this process, interleaved, and each side keeps its fastest repetition,
// so load on the host shifts both sides alike; the absolute times are
// printed for the record, never gated.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "algorithms/bignum.h"
#include "bignum_reference.h"
#include "common/prng.h"

namespace aad::algorithms {
namespace {

constexpr std::size_t kBits = 1536;
constexpr double kMinRatio = 50.0;

BigUint random_operand(Prng& rng) {
  Bytes raw(kBits / 8);
  for (auto& b : raw) b = static_cast<Byte>(rng.next());
  raw.back() |= 0x80;  // full 1536 bits
  return BigUint::from_bytes(raw);
}

template <typename F>
double seconds(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(ModExpRatioTest, FastIsAtLeast50xReferenceAt1536Bits) {
  Prng rng(1536);
  const BigUint modulus = random_operand(rng);
  const BigUint base = random_operand(rng);
  const BigUint exponent = random_operand(rng);

  constexpr int kRepetitions = 3;
  constexpr int kFastCallsPerRepetition = 5;
  double fast_best = 1e30;
  double reference_best = 1e30;
  BigUint fast;
  BigUint reference;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    fast_best = std::min(
        fast_best, seconds([&] {
                     for (int i = 0; i < kFastCallsPerRepetition; ++i)
                       fast = BigUint::mod_exp(base, exponent, modulus);
                   }) / kFastCallsPerRepetition);
    reference_best = std::min(reference_best, seconds([&] {
      reference = reference_mod_exp(base, exponent, modulus);
    }));
  }
  ASSERT_EQ(fast, reference);
  const double ratio = reference_best / fast_best;
  std::printf("modexp %zu-bit: fast %.2f ms, reference %.1f ms, ratio %.1fx\n",
              kBits, fast_best * 1e3, reference_best * 1e3, ratio);
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, kMinRatio);
}

}  // namespace
}  // namespace aad::algorithms
