// Tests of the benchmark itself: its independent modexp reference, and the
// isolation of its probes and tracing from the measured run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/kernels.h"
#include "common/prng.h"
#include "harness.h"
#include "modexp_ref.h"

namespace perfbench {
namespace {

using aad::Bytes;
using aad::algorithms::KernelId;

Bytes random_bytes(std::size_t n, aad::Prng& rng) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<aad::Byte>(rng.next());
  return out;
}

/// Little-endian 2^bit (+ `add` in the low byte) in `width` bytes.
Bytes power_of_two(std::size_t width, std::size_t bit, int add) {
  Bytes out(width, 0);
  out[bit / 8] = static_cast<aad::Byte>(1u << (bit % 8));
  if (add > 0) out[0] = static_cast<aad::Byte>(out[0] + add);
  return out;
}

/// 2^bit - 1 in `width` bytes (all-ones when bit == 8 * width).
Bytes ones(std::size_t width, std::size_t bit) {
  Bytes out(width, 0);
  for (std::size_t i = 0; i < bit; ++i) out[i / 8] |= 1u << (i % 8);
  return out;
}

Bytes concat(const Bytes& a, const Bytes& b, const Bytes& c) {
  Bytes out = a;
  out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), c.begin(), c.end());
  return out;
}

const auto& golden() { return aad::algorithms::spec(KernelId::kModExp).software; }

class ReferenceModexp : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ReferenceModexp, AgreesWithTheKernelOnEdgeModuliAndExponents) {
  const std::size_t width = GetParam() / 8;
  const std::size_t bits = GetParam();
  aad::Prng rng(bits);
  const std::vector<Bytes> moduli = {
      ones(width, bits),                 // all-ones
      ones(width, bits - 1),             // 2^(k-1) - 1
      power_of_two(width, bits - 1, 1),  // 2^(k-1) + 1
      power_of_two(width, 64, 1),        // 2^64 + 1, high limbs zero
      power_of_two(width, bits - 1, 0),  // even: 2^(k-1)
      power_of_two(width, 1, 0),         // 2
  };
  Bytes random_odd = random_bytes(width, rng);
  random_odd[0] |= 1;
  random_odd[width - 1] |= 0x80;
  const std::vector<Bytes> exponents = {Bytes(width, 0),
                                        power_of_two(width, 0, 0),
                                        ones(width, bits)};
  const Bytes base = random_bytes(width, rng);
  for (const Bytes& m : moduli)
    for (const Bytes& e : exponents) {
      const Bytes input = concat(base, e, m);
      EXPECT_EQ(reference_modexp(input), golden()(input));
    }
  // Base zero, equal to the modulus and above it; random exponents;
  // RSA-shaped modulus.
  for (const Bytes& b : {Bytes(width, 0), ones(width, bits), random_odd}) {
    const Bytes input = concat(b, random_bytes(width, rng), random_odd);
    EXPECT_EQ(reference_modexp(input), golden()(input));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ReferenceModexp,
                         ::testing::Values(std::size_t{256},
                                           std::size_t{1024}));

TEST(ReferenceModexpShape, RejectsMalformedInput) {
  EXPECT_THROW(reference_modexp(Bytes(10, 1)), std::invalid_argument);
  EXPECT_THROW(reference_modexp(Bytes(12, 0)), std::invalid_argument);
}

/// The workload cut to its first `per_client` requests per client, with the
/// prepared payloads and expected outputs cut to match.
Prepared truncated(const std::string& name, std::uint64_t seed,
                   std::size_t per_client) {
  Prepared full = prepare(name, seed);
  Prepared p = full;
  p.payloads.clear();
  p.expected.clear();
  p.reference.clear();
  std::size_t k = 0;
  for (auto& ct : p.workload.trace.clients) {
    const std::size_t keep = std::min(per_client, ct.requests.size());
    for (std::size_t i = 0; i < ct.requests.size(); ++i, ++k)
      if (i < keep) {
        p.payloads.push_back(full.payloads[k]);
        p.expected.push_back(full.expected[k]);
        p.reference.push_back(full.reference[k]);
      }
    ct.requests.resize(keep);
  }
  return p;
}

std::vector<std::string> fleet_state(aad::core::CoprocessorFleet& fleet) {
  std::vector<std::string> state = {std::to_string(fleet.now().picoseconds())};
  const auto add = [&](const aad::telemetry::Registry& registry) {
    for (const auto& m : registry.snapshot())
      state.push_back(m.name + "=" + std::to_string(m.value));
  };
  add(fleet.registry());
  for (unsigned i = 0; i < fleet.card_count(); ++i) {
    add(fleet.card(i).registry());
    state.push_back("resident=" +
                    std::to_string(fleet.card(i).mcu().resident_count()));
  }
  return state;
}

TEST(Probes, RunOnAFreshCardAndCannotWarmTheMeasuredRun) {
  for (const std::string name : {"phased_churn", "zipf_hot"}) {
    SCOPED_TRACE(name);
    const Prepared p = truncated(name, 11, 60);
    Provisioned baseline = provision(p.workload);
    const RepResult without = measure(baseline, p, nullptr);
    ASSERT_TRUE(without.errors.empty()) << without.errors.front();

    Provisioned fleet = provision(p.workload);
    const auto before = fleet_state(*fleet.fleet);
    const Probes probes = run_probes(p, without.sim.events);
    EXPECT_EQ(fleet_state(*fleet.fleet), before);
    EXPECT_GT(probes.load_host_us, 0.0);
    EXPECT_GT(probes.decode_mb_per_s, 0.0);
    EXPECT_GT(probes.netlist_invoke_host_us, 0.0);
    EXPECT_GT(probes.scheduler_ns_per_event, 0.0);

    const RepResult with = measure(fleet, p, nullptr);
    EXPECT_TRUE(with.errors.empty());
    EXPECT_EQ(with.sim, without.sim);
    EXPECT_EQ(with.mcu, without.mcu);
  }
}

TEST(Tracing, LeavesTheSimulationUnchangedAndAgreesWithTheCounters) {
  for (const std::string name : {"burst_faults", "phased_churn"}) {
    SCOPED_TRACE(name);
    const Prepared p = truncated(name, 5, 80);
    Provisioned plain = provision(p.workload);
    const RepResult untraced = measure(plain, p, nullptr);
    aad::telemetry::TraceSink sink;
    Provisioned fleet = provision(p.workload);
    const RepResult traced = measure(fleet, p, &sink);
    for (const auto& e : traced.errors) ADD_FAILURE() << e;
    EXPECT_EQ(traced.sim, untraced.sim);
    EXPECT_GT(traced.spans.load_spans, 0u);
    EXPECT_EQ(traced.spans.dispatches,
              traced.stats.submitted + traced.stats.redispatched);
  }
}

TEST(Checks, AWrongExpectedOutputMarksTheRunIncorrect) {
  Prepared p = truncated("zipf_hot", 2, 20);
  p.expected[3].push_back(0);
  Provisioned fleet = provision(p.workload);
  const RepResult r = measure(fleet, p, nullptr);
  EXPECT_EQ(r.sim.verified + 1, r.sim.completed);
  EXPECT_FALSE(r.errors.empty());
}

}  // namespace
}  // namespace perfbench
