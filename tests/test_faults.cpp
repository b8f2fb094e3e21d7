// Fault injection + recovery across the fleet.
//
// The headline is the property-based sweep: seeded random fault plans
// (card deaths, recoveries, ROM corruption) run against every dispatch x
// batch policy combination, then tests/invariant_harness.h asserts the
// system-wide invariants (conservation, pin hygiene, death isolation,
// delta-tracker consistency, determinism).  The mutation tests doctor a
// clean run to prove the harness actually catches violations.  Around the
// sweep sit targeted regressions: redispatch off a dead card, CRC-reject +
// refetch recovery, watchdog timeouts retrying on a survivor, cold fabric
// after revival, a malformed payload failing only its own request, and a
// differential test that every DevicePolicy x BatchMode combination
// completes the exact same request set as the FIFO/no-batch baseline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/fleet.h"
#include "invariant_harness.h"
#include "telemetry/trace_sink.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

// --- property-based invariant sweep ----------------------------------------

harness::HarnessConfig sweep_config(std::uint64_t seed, unsigned slot) {
  harness::HarnessConfig hc;
  hc.seed = seed;
  // Rotate through 3 dispatch policies x 2 batch modes; fold the device
  // policy, delta reconfiguration, corruption, and the watchdog in as
  // extra axes so 5 PR seeds already cross most of the space and 50
  // nightly seeds cover it many times over.  The batch mode flips every 3
  // slots, so 6 consecutive slots visit all 6 dispatch x batch pairs and
  // slots 3-4 already run greedy batching under deaths.
  static const DispatchPolicy kDispatch[] = {DispatchPolicy::kRoundRobin,
                                             DispatchPolicy::kLeastQueued,
                                             DispatchPolicy::kResidencyAffinity};
  static const BatchMode kBatch[] = {BatchMode::kNone, BatchMode::kGreedy};
  hc.dispatch = kDispatch[slot % 3];
  hc.batch = kBatch[(slot / 3) % 2];
  hc.device = (slot % 2) ? DevicePolicy::kResidentFirst : DevicePolicy::kFifo;
  hc.delta_reconfig = (slot % 2) == 1;
  hc.timeout = (slot % 3 == 0) ? sim::SimTime::us(800) : sim::SimTime::zero();
  // Compress the fault horizon into the traffic window so deaths land while
  // requests are actually in flight.
  hc.death_rate_per_ms = 0.3;
  hc.mean_downtime = sim::SimTime::us(400);
  hc.corruption_rate_per_ms = (slot % 2) ? 0.2 : 0.0;
  hc.fault_horizon = sim::SimTime::ms(3);
  hc.clients = 4;
  hc.bursts = 2;
  hc.burst_size = 4;
  return hc;
}

TEST(InvariantSweepTest, CleanAcrossSeedsAndPolicies) {
  const unsigned seeds = harness::invariant_seed_count();
  std::vector<std::uint64_t> failing;
  for (unsigned s = 0; s < seeds; ++s) {
    const harness::HarnessConfig hc = sweep_config(1000 + s, s);
    harness::InvariantHarness h(hc);
    h.run();
    const std::vector<std::string> violations = h.check();
    if (!violations.empty()) {
      failing.push_back(hc.seed);
      for (const std::string& v : violations)
        ADD_FAILURE() << "seed " << hc.seed << ": " << v;
    }
  }
  if (!failing.empty()) {
    // Nightly CI points AAD_FAILING_SEEDS_FILE at a path it uploads as an
    // artifact, so a red run carries its repro seeds with it.
    std::ostringstream os;
    os << "FAILING_SEEDS:";
    for (const std::uint64_t seed : failing) os << ' ' << seed;
    std::cerr << os.str() << std::endl;
    if (const char* path = std::getenv("AAD_FAILING_SEEDS_FILE")) {
      std::ofstream out(path, std::ios::app);
      out << os.str() << '\n';
    }
  }
}

TEST(InvariantSweepTest, SameSeedSameDigest) {
  const harness::HarnessConfig hc = sweep_config(424242, 3);
  harness::InvariantHarness a(hc);
  harness::InvariantHarness b(hc);
  a.run();
  b.run();
  EXPECT_TRUE(a.check().empty());
  EXPECT_EQ(a.digest(), b.digest());
}

// The harness must catch a run whose completion ledger was doctored —
// otherwise "no violations" could mean "checks nothing".
TEST(InvariantSweepTest, MutantDoubleCompletionIsCaught) {
  harness::HarnessConfig hc;
  hc.seed = 7;
  hc.death_rate_per_ms = 0.0;  // clean run, then tamper
  harness::InvariantHarness h(hc);
  h.run();
  ASSERT_TRUE(h.check().empty());
  ASSERT_FALSE(h.completions().empty());
  h.completions().front() = 2;  // pretend a hook double-fired
  const std::vector<std::string> violations = h.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("conservation"), std::string::npos);
}

TEST(InvariantSweepTest, MutantLeakedPinIsCaught) {
  harness::HarnessConfig hc;
  hc.seed = 11;
  hc.death_rate_per_ms = 0.0;
  harness::InvariantHarness h(hc);
  h.run();
  ASSERT_TRUE(h.check().empty());
  // Leak a pin on some card that still holds residency.
  bool leaked = false;
  for (unsigned i = 0; i < h.fleet().card_count() && !leaked; ++i) {
    const auto resident = h.fleet().card(i).mcu().resident_functions();
    if (resident.empty()) continue;
    h.fleet().card(i).mcu().pin(resident.front());
    leaked = true;
  }
  ASSERT_TRUE(leaked) << "no card kept residency; cannot stage the mutant";
  const std::vector<std::string> violations = h.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("pins"), std::string::npos);
}

// --- targeted fault regressions --------------------------------------------

workload::MultiClientTrace bursty_trace(std::uint64_t seed, unsigned clients,
                                        std::size_t bursts,
                                        std::size_t burst_size) {
  workload::BurstyConfig wc;
  wc.clients = clients;
  wc.bursts = bursts;
  wc.burst_size = burst_size;
  wc.functions = algorithms::function_bank();
  wc.seed = seed;
  return workload::make_bursty(wc);
}

// Three of four cards die mid-burst (one for good); every request still
// completes or fails exactly once, nothing hangs, and the recovery
// counters show the machinery actually ran.
TEST(FaultRecoveryTest, ZeroHungRequestsUnderDeathPlan) {
  FleetConfig fc;
  fc.cards = 4;
  fc.retry.timeout = sim::SimTime::ms(5);  // backstop watchdog
  fc.faults.deaths = {
      {0, sim::SimTime::us(100), sim::SimTime::us(900)},
      {1, sim::SimTime::us(250), sim::SimTime::us(1200)},
      {2, sim::SimTime::us(400), sim::SimTime::zero()},  // never recovers
  };
  CoprocessorFleet fleet(fc);
  fleet.download_all();

  const workload::MultiClientTrace trace = bursty_trace(31, 6, 3, 4);
  std::vector<unsigned> fired(trace.total_requests(), 0);
  std::size_t index = 0;
  const sim::SimTime base = fleet.now();
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      const std::size_t slot = index++;
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, slot),
          [&fired, slot](const ServerRequest&) { ++fired[slot]; });
    }
  fleet.run();

  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_TRUE(fleet.scheduler().idle());
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], 1u) << "request " << i << " hung or double-completed";

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 3u);
  EXPECT_GT(stats.redispatched, 0u);
  EXPECT_EQ(stats.completed + stats.failed, fired.size());
  EXPECT_TRUE(fleet.card_alive(0));
  EXPECT_TRUE(fleet.card_alive(1));
  EXPECT_FALSE(fleet.card_alive(2));
  EXPECT_TRUE(fleet.card_alive(3));
}

// A revived card comes back with a cold fabric: nothing resident, nothing
// pinned, and it serves traffic again afterwards.
TEST(FaultRecoveryTest, DeathRecoveryLeavesFabricCold) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::ms(5);
  fc.faults.deaths = {{0, sim::SimTime::us(300), sim::SimTime::us(700)}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const sim::SimTime base = fleet.now();

  const workload::MultiClientTrace trace = bursty_trace(5, 4, 2, 3);
  std::size_t fired = 0;
  std::size_t index = 0;
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, index++),
          [&fired](const ServerRequest&) { ++fired; });
    }
  // Probe the card while it is down: dead, cold, unpinned.
  fleet.scheduler().schedule_at(base + sim::SimTime::us(350), [&fleet] {
    EXPECT_FALSE(fleet.card_alive(0));
    EXPECT_EQ(fleet.card(0).mcu().resident_count(), 0u);
    EXPECT_EQ(fleet.card(0).mcu().pinned_count(), 0u);
  });
  fleet.run();

  EXPECT_TRUE(fleet.card_alive(0));
  EXPECT_EQ(fired, index);
  EXPECT_EQ(fleet.in_flight(), 0u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 1u);
  EXPECT_EQ(stats.completed + stats.failed, fired);
}

// With a single card and a death that never recovers, in-flight and
// later-arriving requests fail cleanly (kCardDeath) instead of hanging.
TEST(FaultRecoveryTest, NoSurvivorFailsCleanly) {
  FleetConfig fc;
  fc.cards = 1;
  fc.faults.deaths = {{0, sim::SimTime::us(200), sim::SimTime::zero()}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const sim::SimTime base = fleet.now();

  const workload::MultiClientTrace trace = bursty_trace(13, 3, 2, 3);
  std::size_t ok = 0, failed = 0;
  std::size_t index = 0;
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, index++),
          [&ok, &failed](const ServerRequest& done) {
            if (done.failed) {
              EXPECT_EQ(done.fail_reason, FailReason::kCardDeath);
              ++failed;
            } else {
              ++ok;
            }
          });
    }
  fleet.run();

  EXPECT_EQ(ok + failed, index);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_TRUE(fleet.scheduler().idle());
  EXPECT_FALSE(fleet.card_alive(0));
}

// An imperative kill_card on a fleet built with no fault plan and no
// watchdog still redispatches the dying card's requests to the survivor:
// every fleet tracks its requests as tickets, so a refugee never fails
// while another card is alive.
TEST(FaultRecoveryTest, ImperativeKillRedispatchesWithoutFaultConfig) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;  // 4 requests per card
  ASSERT_TRUE(fc.faults.empty());
  ASSERT_EQ(fc.retry.timeout, sim::SimTime::zero());
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const memory::FunctionId aes =
      algorithms::function_id(algorithms::KernelId::kAes128);

  std::size_t ok = 0, failed = 0;
  for (unsigned i = 0; i < 8; ++i)
    fleet.submit_function(i, aes, algorithms::bank_input(aes, 2, i),
                          [&ok, &failed](const ServerRequest& done) {
                            done.failed ? ++failed : ++ok;
                          });
  // Run the arrivals only: all 8 are dispatched and none has finished.
  fleet.run_until(fleet.now());
  ASSERT_EQ(fleet.in_flight(), 8u);
  ASSERT_EQ(fleet.server(0).in_flight(), 4u);
  fleet.kill_card(0);
  fleet.run();

  EXPECT_EQ(ok, 8u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(fleet.in_flight(), 0u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 1u);
  EXPECT_EQ(stats.redispatched, 4u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.completed, 8u);
}

// A death with many refugees: each one is matched back to its own ticket,
// so every hook fires exactly once and carries the output of the payload it
// was submitted with, and every refugee is redispatched.
TEST(FaultRecoveryTest, KillMatchesEveryRefugeeToItsOwnTicket) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;  // half the requests per card
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const algorithms::KernelId kernel = algorithms::KernelId::kSha256;
  const memory::FunctionId sha = algorithms::function_id(kernel);

  constexpr unsigned kRequests = 40;
  std::vector<Bytes> inputs;
  std::vector<Bytes> outputs(kRequests);
  std::vector<unsigned> fired(kRequests, 0);
  for (unsigned i = 0; i < kRequests; ++i) {
    inputs.push_back(algorithms::bank_input(sha, 1 + i % 4, i));
    fleet.submit_function(i, sha, inputs.back(),
                          [&, i](const ServerRequest& done) {
                            EXPECT_FALSE(done.failed);
                            ++fired[i];
                            outputs[i] = done.output;
                          });
  }
  fleet.run_until(fleet.now());
  ASSERT_EQ(fleet.in_flight(), kRequests);
  const std::size_t refugees = fleet.server(0).in_flight();
  ASSERT_EQ(refugees, kRequests / 2);
  fleet.kill_card(0);
  fleet.run();

  const algorithms::KernelSpec& spec = algorithms::spec(kernel);
  for (unsigned i = 0; i < kRequests; ++i) {
    EXPECT_EQ(fired[i], 1u) << "request " << i;
    EXPECT_EQ(outputs[i], spec.software(inputs[i])) << "request " << i;
  }
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.redispatched, refugees);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.failed, 0u);
}

// --- malformed payloads ----------------------------------------------------

// A payload the kernel rejects, or one larger than the card's 64 KiB local
// RAM, fails only its own request (kBadInput): the other requests complete
// with the software reference output,
// every hook fires once, the fleet drains, and it keeps serving afterwards.
// The failed request books no fabric time, so each card's fabric lane and
// its stage.* execution counters still agree.
TEST(BadInputTest, MalformedPayloadFailsOnlyItsOwnRequest) {
  FleetConfig fc;
  fc.cards = 2;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  telemetry::TraceSink sink;
  fleet.attach_trace(sink, "fleet");

  using algorithms::KernelId;
  struct Request {
    KernelId kernel;
    Bytes input;
    bool bad;
  };
  const std::vector<Request> requests = {
      {KernelId::kSha256, algorithms::spec(KernelId::kSha256).make_input(2, 1),
       false},
      {KernelId::kSha256, algorithms::spec(KernelId::kSha256).make_input(2, 2),
       false},
      {KernelId::kModExp, Bytes(95, 0x5a), true},  // not base||exp||modulus
      {KernelId::kFft, algorithms::spec(KernelId::kFft).make_input(6, 3),
       false},
      {KernelId::kSha256, Bytes(70 * 1024, 0x11), true},  // overflows RAM
  };
  std::vector<unsigned> fired(requests.size(), 0);
  std::vector<ServerRequest> done(requests.size());
  for (unsigned i = 0; i < requests.size(); ++i)
    fleet.submit(i, requests[i].kernel, requests[i].input,
                 [&, i](const ServerRequest& r) {
                   ++fired[i];
                   done[i] = r;
                 });
  fleet.run();

  for (unsigned i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(fired[i], 1u) << "request " << i;
    if (requests[i].bad) {
      EXPECT_TRUE(done[i].failed);
      EXPECT_EQ(done[i].fail_reason, FailReason::kBadInput);
      EXPECT_TRUE(done[i].output.empty());
    } else {
      EXPECT_FALSE(done[i].failed) << "request " << i;
      EXPECT_EQ(done[i].output,
                algorithms::spec(requests[i].kernel).software(requests[i].input))
          << "request " << i;
    }
  }
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_TRUE(fleet.sim_idle());
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 2u);

  std::uint64_t fabric_ps = 0;
  for (const telemetry::TraceEvent& e : sink.merged())
    if (e.is_span() && std::string(e.category) == "fabric")
      fabric_ps += static_cast<std::uint64_t>(e.dur_ps);
  std::uint64_t stage_ps = 0;
  for (unsigned c = 0; c < fleet.card_count(); ++c)
    for (const char* stage : {"stage.data-in", "stage.execute", "stage.data-out"})
      stage_ps += fleet.card(c).registry().counter(stage).value();
  EXPECT_GT(fabric_ps, 0u);
  EXPECT_EQ(fabric_ps, stage_ps);

  // The fleet stays usable: a follow-on request completes normally.
  const Bytes next = algorithms::spec(KernelId::kSha256).make_input(1, 4);
  Bytes next_output;
  fleet.submit(9, KernelId::kSha256, next,
               [&](const ServerRequest& r) { next_output = r.output; });
  fleet.run();
  EXPECT_EQ(next_output, algorithms::spec(KernelId::kSha256).software(next));
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// A request for a function the card's ROM was never provisioned with fails
// alone with kBadInput; the requests around it complete and the fleet keeps
// serving.
TEST(BadInputTest, UnprovisionedFunctionFailsOnlyItsOwnRequest) {
  FleetConfig fc;
  fc.cards = 2;
  CoprocessorFleet fleet(fc);
  using algorithms::KernelId;
  fleet.download(KernelId::kAes128);

  const std::vector<KernelId> kernels = {KernelId::kAes128, KernelId::kSha256,
                                         KernelId::kAes128};
  std::vector<Bytes> inputs;
  for (unsigned i = 0; i < kernels.size(); ++i)
    inputs.push_back(algorithms::spec(kernels[i]).make_input(2, i + 1));
  std::vector<unsigned> fired(kernels.size(), 0);
  std::vector<ServerRequest> done(kernels.size());
  for (unsigned i = 0; i < kernels.size(); ++i)
    fleet.submit(i, kernels[i], inputs[i], [&, i](const ServerRequest& r) {
      ++fired[i];
      done[i] = r;
    });
  fleet.run();

  for (unsigned i = 0; i < kernels.size(); ++i)
    EXPECT_EQ(fired[i], 1u) << "request " << i;
  EXPECT_TRUE(done[1].failed);
  EXPECT_EQ(done[1].fail_reason, FailReason::kBadInput);
  EXPECT_TRUE(done[1].output.empty());
  for (const unsigned i : {0u, 2u}) {
    EXPECT_FALSE(done[i].failed) << "request " << i;
    EXPECT_EQ(done[i].output,
              algorithms::spec(kernels[i]).software(inputs[i]))
        << "request " << i;
  }
  EXPECT_EQ(fleet.in_flight(), 0u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.failed, 1u);

  // The fleet stays usable: a follow-on request completes normally.
  const Bytes next = algorithms::spec(KernelId::kAes128).make_input(1, 4);
  Bytes next_output;
  fleet.submit(9, KernelId::kAes128, next,
               [&](const ServerRequest& r) { next_output = r.output; });
  fleet.run();
  EXPECT_EQ(next_output, algorithms::spec(KernelId::kAes128).software(next));
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// --- corrupted bitstreams ---------------------------------------------------

// A corrupted ROM image is rejected by the CRC check before any frame is
// programmed, re-fetched from the pristine host copy, and the request then
// completes normally.
TEST(CrcRejectTest, RefetchRecoversCorruptedBitstream) {
  AgileCoprocessor card;
  card.download_all();
  const memory::FunctionId fn = algorithms::function_bank().front();
  ASSERT_TRUE(card.mcu().rom().corrupt_payload(fn, /*seed=*/99,
                                               /*bit_flips=*/8));

  CoprocessorServer server(card, {});
  bool fired = false;
  server.submit_function(0, fn, algorithms::bank_input(fn, 2, 0),
                         [&fired](const ServerRequest& done) {
                           fired = true;
                           EXPECT_FALSE(done.failed);
                           EXPECT_FALSE(done.output.empty());
                         });
  server.run();

  EXPECT_TRUE(fired);
  EXPECT_EQ(card.mcu().stats().crc_rejects, 1u);
  EXPECT_EQ(card.mcu().stats().refetches, 1u);
  EXPECT_TRUE(card.mcu().is_resident(fn));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.crc_rejects, 1u);
  EXPECT_EQ(stats.refetches, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// With refetch disabled the load is rejected cleanly: the request fails
// with kCrcReject, nothing is programmed, no pins leak, and the card keeps
// serving other functions.
TEST(CrcRejectTest, WithoutRefetchFailsCleanly) {
  CoprocessorConfig cc;
  cc.mcu.refetch_on_crc_reject = false;
  AgileCoprocessor card(cc);
  card.download_all();
  const auto bank = algorithms::function_bank();
  ASSERT_GE(bank.size(), 2u);
  const memory::FunctionId bad = bank[0];
  const memory::FunctionId good = bank[1];
  ASSERT_TRUE(card.mcu().rom().corrupt_payload(bad, 99, 8));

  CoprocessorServer server(card, {});
  bool bad_fired = false, good_fired = false;
  server.submit_function(0, bad, algorithms::bank_input(bad, 1, 0),
                         [&bad_fired](const ServerRequest& done) {
                           bad_fired = true;
                           EXPECT_TRUE(done.failed);
                           EXPECT_EQ(done.fail_reason, FailReason::kCrcReject);
                         });
  server.submit_function(1, good, algorithms::bank_input(good, 1, 1),
                         [&good_fired](const ServerRequest& done) {
                           good_fired = true;
                           EXPECT_FALSE(done.failed);
                         });
  server.run();

  EXPECT_TRUE(bad_fired);
  EXPECT_TRUE(good_fired);
  EXPECT_EQ(card.mcu().stats().crc_rejects, 1u);
  EXPECT_EQ(card.mcu().stats().refetches, 0u);
  EXPECT_FALSE(card.mcu().is_resident(bad));
  EXPECT_TRUE(card.mcu().is_resident(good));
  EXPECT_EQ(card.mcu().pinned_count(), 0u);
  EXPECT_EQ(server.stats().failed, 1u);
  EXPECT_EQ(server.in_flight(), 0u);
}

// --- watchdog timeouts ------------------------------------------------------

// A request stuck behind a deep backlog on one card times out, is pulled
// off that queue (it never committed), and retries on the idle survivor.
TEST(TimeoutTest, RetriesOnSurvivor) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::us(300);
  fc.retry.max_retries = 3;
  fc.retry.backoff_base = sim::SimTime::us(50);
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  // Bury card 0 under direct submissions the fleet does not track.
  for (unsigned i = 0; i < 24; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(0).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  // Round-robin sends the first fleet ticket to card 0's backlog.
  bool fired = false;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          fired = true;
                          EXPECT_FALSE(done.failed);
                        });
  fleet.run();

  EXPECT_TRUE(fired);
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// With a single card, exhausting the retry budget fails the request with
// kTimeout instead of retrying forever.
TEST(TimeoutTest, ExhaustedRetriesFail) {
  FleetConfig fc;
  fc.cards = 1;
  fc.retry.timeout = sim::SimTime::us(100);
  fc.retry.max_retries = 1;
  fc.retry.backoff_base = sim::SimTime::us(50);
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  for (unsigned i = 0; i < 40; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(0).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  bool fired = false;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          fired = true;
                          EXPECT_TRUE(done.failed);
                          EXPECT_EQ(done.fail_reason, FailReason::kTimeout);
                        });
  fleet.run();

  EXPECT_TRUE(fired);
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.timeouts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// --- fault machinery is inert when disarmed ---------------------------------

std::uint64_t completed_digest(const CoprocessorFleet& fleet) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (unsigned i = 0; i < fleet.card_count(); ++i)
    for (const ServerRequest& r : fleet.server(i).completed()) {
      mix(r.id);
      mix(r.client);
      mix(r.function);
      mix(static_cast<std::uint64_t>(r.submit_time.picoseconds()));
      mix(static_cast<std::uint64_t>(r.complete_time.picoseconds()));
      mix(r.output.size());
    }
  return h;
}

// Arming the watchdog with a timeout that never fires adds one timer per
// dispatch (cancelled at completion) to the same ticketed path — and must
// not move a single completion time.
TEST(FaultModeTest, IdleWatchdogIsTimingNeutral) {
  const workload::MultiClientTrace trace = bursty_trace(21, 4, 2, 4);
  const auto run_fleet = [&trace](bool watchdog) {
    FleetConfig fc;
    fc.cards = 2;
    if (watchdog) fc.retry.timeout = sim::SimTime::ms(1000);  // never fires
    CoprocessorFleet fleet(fc);
    fleet.download_all();
    workload::replay(fleet, trace, request_input);
    fleet.run();
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
    return completed_digest(fleet);
  };
  EXPECT_EQ(run_fleet(false), run_fleet(true));
}

// --- differential: schedulers and batchers preserve the served set ----------

// Every DevicePolicy x BatchMode combination must complete exactly the
// same multiset of (client, function, output) as the FIFO/no-batch
// baseline on the same trace — policies reorder and coalesce work, they
// never change what gets computed.
TEST(DifferentialTest, AllCombosCompleteSameRequestSet) {
  const workload::MultiClientTrace trace = bursty_trace(77, 4, 2, 4);
  const auto served_set = [&trace](DevicePolicy dp, BatchMode bm) {
    AgileCoprocessor card;
    card.download_all();
    ServerConfig sc;
    sc.device_policy = dp;
    sc.batch = bm;
    CoprocessorServer server(card, sc);
    workload::replay(server, trace, request_input);
    server.run();
    std::multiset<std::string> set;
    for (const ServerRequest& r : server.completed()) {
      std::ostringstream os;
      os << r.client << '/' << r.function << '/';
      for (const Byte b : r.output) os << static_cast<unsigned>(b) << ',';
      set.insert(os.str());
    }
    EXPECT_EQ(set.size(), trace.total_requests());
    return set;
  };

  const auto baseline = served_set(DevicePolicy::kFifo, BatchMode::kNone);
  for (const DevicePolicy dp :
       {DevicePolicy::kFifo, DevicePolicy::kResidentFirst,
        DevicePolicy::kShortestReconfigFirst}) {
    for (const BatchMode bm : {BatchMode::kNone, BatchMode::kGreedy}) {
      if (dp == DevicePolicy::kFifo && bm == BatchMode::kNone) continue;
      EXPECT_EQ(served_set(dp, bm), baseline)
          << "policy " << to_string(dp) << " x " << to_string(bm)
          << " served a different request set";
    }
  }
}

}  // namespace
}  // namespace aad::core
