// In-process speed gate for the configuration-load CRC: slicing-by-8
// Crc32::compute must stay well ahead of the byte-at-a-time table loop it
// replaced (bytewise_crc32 in tests/crc32_reference.h) on the same 64 KiB
// buffer.  Both run in this process, interleaved, and each side keeps its
// fastest repetition, so load on the host shifts both sides alike; the
// absolute times are printed for the record, never gated.
//
// The bound is about half the lowest ratio measured on a 4-core x86-64
// host: 5.2x in Release and -Werror builds, 1.0x under ASan/UBSan.
// AddressSanitizer checks every byte and table load on both sides; the
// byte loop hides those checks behind its one-lookup-per-byte dependency
// chain, slicing-by-8 pays for them, so sanitized builds get their own,
// lower bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>

#include "common/crc32.h"
#include "common/prng.h"
#include "crc32_reference.h"

namespace aad {
namespace {

constexpr std::size_t kBytes = 64 * 1024;
#if defined(__SANITIZE_ADDRESS__)
#define AAD_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define AAD_ASAN 1
#endif
#endif
#ifdef AAD_ASAN
constexpr double kMinRatio = 0.5;
#else
constexpr double kMinRatio = 2.5;
#endif

template <typename F>
double seconds(F&& f) {
  const auto start = std::chrono::steady_clock::now();
  f();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(CrcRatioTest, SlicingBy8BeatsTheByteLoopOn64KiB) {
  Prng rng(kBytes);
  Bytes buf(kBytes);
  for (auto& b : buf) b = static_cast<Byte>(rng.next());

  constexpr int kRepetitions = 15;
  constexpr int kCallsPerRepetition = 20;
  double fast_best = 1e30;
  double bytewise_best = 1e30;
  std::uint32_t fast = 0;
  std::uint32_t bytewise = 0;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    fast_best = std::min(fast_best, seconds([&] {
                           for (int i = 0; i < kCallsPerRepetition; ++i)
                             fast += Crc32::compute(buf);
                         }) / kCallsPerRepetition);
    bytewise_best = std::min(bytewise_best, seconds([&] {
                               for (int i = 0; i < kCallsPerRepetition; ++i)
                                 bytewise += bytewise_crc32(buf);
                             }) / kCallsPerRepetition);
  }
  // The running sums keep every timed call live.
  ASSERT_EQ(Crc32::compute(buf), bytewise_crc32(buf));
  ASSERT_EQ(fast, bytewise);
  const double ratio = bytewise_best / fast_best;
  std::printf("crc32 %zu KiB: slicing-by-8 %.1f us, byte loop %.1f us, "
              "ratio %.2fx\n",
              kBytes / 1024, fast_best * 1e6, bytewise_best * 1e6, ratio);
  RecordProperty("ratio", std::to_string(ratio));
  EXPECT_GE(ratio, kMinRatio);
}

}  // namespace
}  // namespace aad
