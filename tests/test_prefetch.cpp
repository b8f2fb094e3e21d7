// Speculative configuration prefetch: the Markov predictor
// (core/predictor.h), the MCU-level speculative steal rule, the server's
// idle-cycle pump accounting, and the fleet's prefetched routing tier.
//
// The load-bearing safety property is tested at every layer: a
// speculative load must never delay real work.  At the MCU that means a
// demand miss steals speculative frames FIRST (before the replacement
// policy even speaks); at the server it means the pump only runs on a
// fully idle card and only evicts dead-looking residents; and with the
// feature off, every prefetch counter is zero and the pipeline is
// untouched.
#include <gtest/gtest.h>

#include <vector>

#include "algorithms/kernels.h"
#include "core/fleet.h"
#include "core/predictor.h"
#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

// --- FunctionPredictor unit behavior ----------------------------------------

TEST(PredictorTest, LearnsDominantSuccessor) {
  FunctionPredictor p;
  for (int i = 0; i < 4; ++i) {
    p.observe(0, 10);
    p.observe(0, 20);
  }
  const auto after_a = p.predict_after(0, 10);
  ASSERT_TRUE(after_a.has_value());
  EXPECT_EQ(after_a->function, 20u);
  EXPECT_DOUBLE_EQ(after_a->confidence, 1.0);
  // predict() conditions on the client's LAST completion (20 here).
  const auto next = p.predict(0);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->function, 10u);
}

TEST(PredictorTest, SelfTransitionsCarryNoSignal) {
  FunctionPredictor p;
  // A A A B, repeated: the only recorded edges are A->B and B->A — the
  // within-burst repeats are dropped (the repeat is already resident), so
  // the table is burst-granular.
  for (int i = 0; i < 3; ++i) {
    p.observe(0, 10);
    p.observe(0, 10);
    p.observe(0, 10);
    p.observe(0, 20);
  }
  EXPECT_EQ(p.observations(), 5u);  // 3x (A->B) + 2x (B->A), repeats free
  const auto after_a = p.predict_after(0, 10);
  ASSERT_TRUE(after_a.has_value());
  EXPECT_EQ(after_a->function, 20u);
  EXPECT_DOUBLE_EQ(after_a->confidence, 1.0);  // repeats did not dilute it
}

TEST(PredictorTest, ConfidenceAndSampleGating) {
  PredictorConfig pc;  // min_confidence 0.55, min_samples 2
  FunctionPredictor p(pc);
  // One observation: below min_samples.
  p.observe(0, 10);
  p.observe(0, 20);
  EXPECT_FALSE(p.predict_after(0, 10).has_value());
  // Even split A->B / A->C: 0.5 < 0.55, too flat to speak.
  p.observe(0, 10);
  p.observe(0, 30);
  EXPECT_FALSE(p.predict_after(0, 10).has_value());
  // A third edge to B tips the row over the threshold.
  p.observe(0, 10);
  p.observe(0, 20);
  const auto pred = p.predict_after(0, 10);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->function, 20u);
}

TEST(PredictorTest, UnseenClientAndFunctionFallBackToNothing) {
  FunctionPredictor p;
  EXPECT_FALSE(p.predict(7).has_value());
  p.observe(0, 10);
  p.observe(0, 20);
  p.observe(0, 10);
  p.observe(0, 20);
  EXPECT_FALSE(p.predict(7).has_value());             // other client
  EXPECT_FALSE(p.predict_after(0, 999).has_value());  // unseen function
}

TEST(PredictorTest, TieBreaksTowardLowestFunctionId) {
  PredictorConfig pc;
  pc.min_confidence = 0.5;
  FunctionPredictor p(pc);
  // Equal counts A->30 and A->20: the prediction must be a pure function
  // of the table, so the tie goes to the lower id.
  p.observe(0, 10);
  p.observe(0, 30);
  p.observe(0, 10);
  p.observe(0, 20);
  const auto pred = p.predict_after(0, 10);
  ASSERT_TRUE(pred.has_value());
  EXPECT_EQ(pred->function, 20u);
  EXPECT_DOUBLE_EQ(pred->confidence, 0.5);
}

TEST(PredictorTest, DecayLetsANewWorkingSetOvertakeStaleHistory) {
  PredictorConfig pc;
  pc.decay_limit = 8;
  FunctionPredictor p(pc);
  for (int i = 0; i < 20; ++i) {
    p.observe(0, 10);
    p.observe(0, 20);  // long A->B history
  }
  // The client shifts to A->C.  With halving at 8 the stale majority is
  // overtaken in a bounded number of observations, not proportional to
  // the 20-round history.
  int flips = 0;
  for (; flips < 12; ++flips) {
    p.observe(0, 10);
    p.observe(0, 30);
    const auto pred = p.predict_after(0, 10);
    if (pred && pred->function == 30u) break;
  }
  EXPECT_LT(flips, 12) << "prediction never adapted to the shifted set";
}

// --- MCU: speculative residents and the steal rule --------------------------

// Pick bank functions and a geometry such that two functions fill the
// card exactly: the canonical contention triangle for eviction tests.
struct Triangle {
  memory::FunctionId a = 0, b = 0, c = 0;
  unsigned frames = 0;  ///< geometry sized to hold exactly {a, b}
};

std::map<memory::FunctionId, unsigned> probe_footprints() {
  AgileCoprocessor probe;
  probe.download_all();
  std::map<memory::FunctionId, unsigned> frames;
  for (const memory::FunctionId fn : algorithms::function_bank())
    frames[fn] = probe.mcu().estimate_load(fn).frames;
  return frames;
}

// Evicting b alone must make room for c: footprint(c) <= footprint(b).
Triangle make_steal_triangle() {
  const auto frames = probe_footprints();
  Triangle t;
  for (const auto& [fn, f] : frames) {
    if (t.b == 0 || f > frames.at(t.b)) t.b = fn;  // largest
    if (t.c == 0 || f < frames.at(t.c)) t.c = fn;  // smallest
  }
  for (const auto& [fn, f] : frames)
    if (fn != t.b && fn != t.c) { t.a = fn; break; }
  EXPECT_LE(frames.at(t.c), frames.at(t.b));
  t.frames = frames.at(t.a) + frames.at(t.b);
  return t;
}

// Evicting b alone must NOT make room for c (c needs a's frames too):
// footprint(b) < footprint(c) <= footprint(a) + footprint(b).
Triangle make_cadence_triangle() {
  const auto frames = probe_footprints();
  Triangle t;
  for (const auto& [fn, f] : frames) {
    if (t.a == 0 || f > frames.at(t.a)) t.a = fn;  // largest
    if (t.b == 0 || f < frames.at(t.b)) t.b = fn;  // smallest
  }
  const unsigned fa = frames.at(t.a), fb = frames.at(t.b);
  for (const auto& [fn, f] : frames)
    if (fn != t.a && fn != t.b && f > fb && f <= fa + fb) { t.c = fn; break; }
  EXPECT_NE(t.c, 0u) << "bank has no middle-weight function";
  t.frames = fa + fb;
  return t;
}

// A demand miss that needs frames steals them from a speculative resident
// IMMEDIATELY — even when the speculative function is the most recently
// touched and LRU would have evicted the older demand resident.
TEST(McuStealTest, DemandMissStealsSpeculativeBeforeLru) {
  const Triangle t = make_steal_triangle();
  CoprocessorConfig cc;
  cc.fabric.geometry.frame_count = t.frames;
  AgileCoprocessor card(cc);
  card.download_all();
  mcu::Mcu& mcu = card.mcu();

  sim::SimTime elapsed;
  mcu.load_invoke(t.a, sim::SimTime::us(0), &elapsed);   // demand, old
  mcu.load_invoke(t.b, sim::SimTime::us(500), &elapsed); // newer
  mcu.mark_speculative(t.b);
  ASSERT_TRUE(mcu.is_resident(t.a));
  ASSERT_TRUE(mcu.is_resident(t.b));
  ASSERT_EQ(mcu.speculative_count(), 1u);

  // Demand-load c: LRU's victim would be a (oldest), but the speculative
  // b must be stolen first.
  mcu.load_invoke(t.c, sim::SimTime::us(1000), &elapsed);
  EXPECT_TRUE(mcu.is_resident(t.c));
  EXPECT_FALSE(mcu.is_resident(t.b)) << "speculative frames were not stolen";
  EXPECT_TRUE(mcu.is_resident(t.a)) << "demand resident evicted instead of "
                                       "the speculative one";
  EXPECT_EQ(mcu.speculative_count(), 0u);
}

TEST(McuStealTest, PrefetchFeasibleProtectsLiveResidents) {
  const Triangle t = make_steal_triangle();
  CoprocessorConfig cc;
  cc.fabric.geometry.frame_count = t.frames;
  AgileCoprocessor card(cc);
  card.download_all();
  mcu::Mcu& mcu = card.mcu();

  sim::SimTime elapsed;
  mcu.load_invoke(t.a, sim::SimTime::us(0), &elapsed);
  mcu.load_invoke(t.b, sim::SimTime::us(100), &elapsed);
  const sim::SimTime min_idle = sim::SimTime::ms(1);

  // Residents touched 200us ago are live: speculating c may not displace
  // them even though load_feasible (the demand rule) would allow it.
  const sim::SimTime soon = sim::SimTime::us(300);
  EXPECT_TRUE(mcu.load_feasible(t.c));
  EXPECT_FALSE(mcu.prefetch_feasible(t.c, soon, min_idle, 2.0));

  // Resident functions are vacuously feasible; unknown ids never are.
  EXPECT_TRUE(mcu.prefetch_feasible(t.a, soon, min_idle, 2.0));
  EXPECT_FALSE(mcu.prefetch_feasible(999999u, soon, min_idle, 2.0));

  // Once both residents have idled past the floor they are dead and the
  // same speculation becomes feasible.
  EXPECT_TRUE(
      mcu.prefetch_feasible(t.c, sim::SimTime::ms(50), min_idle, 2.0));

  // Other speculative residents are always fair game, idle or not.
  mcu.mark_speculative(t.b);
  EXPECT_TRUE(mcu.prefetch_feasible(t.c, soon, min_idle, 2.0));
}

// The frequency-aware half of the gate: a resident reaccessed on a slow
// cadence is protected for a multiple of its own observed gap, well past
// the plain idle floor.
TEST(McuStealTest, PrefetchFeasibleScalesWithObservedCadence) {
  const Triangle t = make_cadence_triangle();
  CoprocessorConfig cc;
  cc.fabric.geometry.frame_count = t.frames;
  AgileCoprocessor card(cc);
  card.download_all();
  mcu::Mcu& mcu = card.mcu();

  sim::SimTime elapsed;
  mcu.load_invoke(t.a, sim::SimTime::us(0), &elapsed);
  mcu.load_invoke(t.b, sim::SimTime::us(0), &elapsed);
  // Re-access a on a 4ms cadence (resident load_invoke = FRT hit): mean
  // gap 4ms, so with factor 2 it stays protected until ~8ms idle even
  // though the 1ms floor has long passed.
  mcu.load_invoke(t.a, sim::SimTime::ms(4), &elapsed);
  mcu.load_invoke(t.a, sim::SimTime::ms(8), &elapsed);

  const sim::SimTime min_idle = sim::SimTime::ms(1);
  // At 9ms: b (accessed once, threshold = the 1ms floor) has idled 9ms
  // and is dead, but c does not fit in b\'s frames alone; a has idled
  // only 1ms < 2 x 4ms, so it still blocks the placement.
  EXPECT_FALSE(
      mcu.prefetch_feasible(t.c, sim::SimTime::ms(9), min_idle, 2.0))
      << "resident on a 4ms cadence was treated as dead at 1ms idle";
  // At 20ms a has idled 12ms > 2 x 4ms: both dead, speculation allowed.
  EXPECT_TRUE(
      mcu.prefetch_feasible(t.c, sim::SimTime::ms(20), min_idle, 2.0));
}

// --- server: pump accounting ------------------------------------------------

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

// A queued prefetch issues once the card is fully idle, the later demand
// for it is a hit, and the paid engine time is booked as hidden.
TEST(ServerPrefetchTest, IssueThenDemandHitAccounting) {
  AgileCoprocessor card;  // default geometry: free frames abound
  card.download_all();
  ServerConfig sc;
  sc.prefetch.enabled = true;
  CoprocessorServer server(card, sc);
  const auto bank = algorithms::function_bank();
  const memory::FunctionId a = bank[0], b = bank[1];

  server.submit_function(0, a, algorithms::bank_input(a, 1, 0), {});
  server.run();
  ASSERT_EQ(server.stats().prefetch_issued, 0u);

  server.queue_prefetch_at(server.now(), b);
  server.run();
  EXPECT_EQ(server.stats().prefetch_issued, 1u);
  EXPECT_TRUE(card.mcu().is_resident(b));
  EXPECT_TRUE(card.mcu().is_speculative(b));
  EXPECT_TRUE(server.prefetch_resident(b));
  EXPECT_EQ(card.mcu().pinned_count(), 0u) << "pump leaked a pin";

  bool fired = false;
  server.submit_function(0, b, algorithms::bank_input(b, 1, 1),
                         [&fired](const ServerRequest& done) {
                           fired = true;
                           EXPECT_FALSE(done.failed);
                           EXPECT_TRUE(done.load.hit)
                               << "prefetched function reloaded on demand";
                         });
  server.run();
  EXPECT_TRUE(fired);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  EXPECT_GT(stats.hidden_reconfig_prefetch, sim::SimTime::zero());
  EXPECT_FALSE(card.mcu().is_speculative(b)) << "hit did not consume the tag";
  EXPECT_FALSE(server.prefetch_resident(b));
  EXPECT_EQ(server.prefetch_outstanding(), 0u);
}

// A speculative resident stolen by demand work before its demand arrives
// is booked as wasted when that demand finally misses.
TEST(ServerPrefetchTest, StolenPrefetchBooksAsWasted) {
  const Triangle t = make_steal_triangle();
  CoprocessorConfig cc;
  cc.fabric.geometry.frame_count = t.frames;
  AgileCoprocessor card(cc);
  card.download_all();
  ServerConfig sc;
  sc.prefetch.enabled = true;
  CoprocessorServer server(card, sc);

  // Warm a, then prefetch c speculatively next to it.
  server.submit_function(0, t.a, algorithms::bank_input(t.a, 1, 0), {});
  server.run();
  server.queue_prefetch_at(server.now(), t.c);
  server.run();
  ASSERT_EQ(server.stats().prefetch_issued, 1u);
  ASSERT_TRUE(card.mcu().is_speculative(t.c));

  // Demand b: the triangle does not hold three, so the speculative c is
  // stolen to make room — real work was never delayed by the guess.
  server.submit_function(0, t.b, algorithms::bank_input(t.b, 1, 1), {});
  server.run();
  EXPECT_FALSE(card.mcu().is_resident(t.c));
  EXPECT_EQ(card.mcu().speculative_count(), 0u);

  // The demand for c now misses and settles the ledger: wasted, not hit.
  server.submit_function(0, t.c, algorithms::bank_input(t.c, 1, 2), {});
  server.run();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_wasted, 1u);
  EXPECT_EQ(stats.hidden_reconfig_prefetch, sim::SimTime::zero());
  EXPECT_EQ(server.prefetch_outstanding(), 0u);
}

// With the feature off (the default), the whole subsystem is inert: no
// counters move and queue_prefetch_at is a no-op.
TEST(ServerPrefetchTest, DisabledPathIsInert) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card, {});
  const auto bank = algorithms::function_bank();
  server.queue_prefetch_at(server.now(), bank[1]);  // must be a no-op
  for (unsigned i = 0; i < 6; ++i)
    server.submit_function(i % 2, bank[i % bank.size()],
                           algorithms::bank_input(bank[i % bank.size()], 1, i),
                           {});
  server.run();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  EXPECT_EQ(stats.hidden_reconfig_prefetch, sim::SimTime::zero());
  EXPECT_EQ(server.prefetch_outstanding(), 0u);
  EXPECT_EQ(card.mcu().speculative_count(), 0u);
}

// --- fleet: the prefetched routing tier -------------------------------------

// A card that prefetched a function wins routing for the demand that
// follows, ahead of every tier except an open batch.
TEST(FleetPrefetchTest, PrefetchedCardWinsRouting) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server.prefetch.enabled = true;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();
  const memory::FunctionId fn = bank[3];

  // Warm fn speculatively on card 1 only.
  fleet.server(1).queue_prefetch_at(fleet.now(), fn);
  fleet.run();
  ASSERT_TRUE(fleet.server(1).prefetch_resident(fn));
  ASSERT_FALSE(fleet.server(0).prefetch_resident(fn));
  EXPECT_EQ(fleet.preview_card(fn), 1u);

  bool fired = false;
  fleet.submit_function(0, fn, algorithms::bank_input(fn, 1, 0),
                        [&fired](const ServerRequest& done) {
                          fired = true;
                          EXPECT_FALSE(done.failed);
                          EXPECT_TRUE(done.load.hit);
                        });
  fleet.run();
  EXPECT_TRUE(fired);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.prefetch_routed, 1u);
  EXPECT_EQ(stats.prefetch_hits, 1u);
  EXPECT_GT(stats.hidden_reconfig_prefetch, sim::SimTime::zero());
}

// Fleet-wide off-path: a real multi-client run with prefetch disabled
// reports zero across every prefetch counter.
TEST(FleetPrefetchTest, DisabledFleetCountersStayZero) {
  workload::BurstyConfig wc;
  wc.clients = 4;
  wc.bursts = 2;
  wc.burst_size = 4;
  wc.functions = algorithms::function_bank();
  wc.seed = 91;
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, workload::make_bursty(wc), request_input);
  fleet.run();
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.prefetch_routed, 0u);
  EXPECT_EQ(stats.prefetch_issued, 0u);
  EXPECT_EQ(stats.prefetch_hits, 0u);
  EXPECT_EQ(stats.prefetch_wasted, 0u);
  EXPECT_EQ(stats.hidden_reconfig_prefetch, sim::SimTime::zero());
}

// Phased working-set shifts on a 2-card fleet: each card's own predictor
// learns the phase cycle from its completions and its idle-engine pump
// warms the predicted next function.  The pump must fire, every issued
// prefetch must close as a hit, a waste or still outstanding, and no
// speculative load may leave a pin behind.
TEST(FleetPrefetchTest, PhasedWorkloadPrefetchesAndHits) {
  workload::PhasedConfig pc;
  pc.clients = 4;
  pc.phases = 5;
  pc.requests_per_phase = 10;
  pc.functions = algorithms::function_bank();
  pc.working_set = 3;
  pc.phase_stride = 3;
  pc.seed = 17;
  pc.mean_interarrival = sim::SimTime::ms(1);
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server.prefetch.enabled = true;
  fc.server.prefetch.predictor.min_confidence = 0.35;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, workload::make_phased(pc), request_input);
  fleet.run();
  const FleetStats stats = fleet.stats();
  EXPECT_GT(stats.prefetch_issued, 0u) << "pump never fired on phased load";
  EXPECT_GE(stats.prefetch_issued,
            stats.prefetch_hits + stats.prefetch_wasted);
  EXPECT_EQ(fleet.in_flight(), 0u);
  for (unsigned i = 0; i < fleet.card_count(); ++i)
    EXPECT_EQ(fleet.card(i).mcu().pinned_count(), 0u)
        << "card " << i << " leaked a prefetch pin";
}

}  // namespace
}  // namespace aad::core
