// The telemetry subsystem: the perf-counter registry (telemetry/registry.h)
// and the Chrome-trace sink (telemetry/trace_sink.h).
//
// Registry: get-or-register handle stability, enumeration order, reset
// semantics, and the cross-kind name-collision contract — plus the
// integration property the refactor rests on: McuStats/ServerStats are thin
// views over the card's registry, so the named counters and the snapshot
// structs can never disagree.
//
// Trace sink: deterministic merge order, the span/instant encodings, and
// span *nesting* on real server and fleet runs — overlapped
// reconfiguration, greedy batching (hold spans), and fleet dispatch
// instants — with the hardware lanes (pci/engine/fabric) staying
// serialized, because each mirrors a resource the simulator books
// exclusively.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/error.h"
#include "core/coprocessor.h"
#include "core/fleet.h"
#include "core/server.h"
#include "telemetry/registry.h"
#include "telemetry/trace_sink.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad {
namespace {

using algorithms::KernelId;
using telemetry::TraceEvent;

// --- registry ---------------------------------------------------------------

TEST(RegistryTest, GetOrRegisterReturnsOneStableHandle) {
  telemetry::Registry registry;
  telemetry::Counter& a = registry.counter("mcu.invocations");
  telemetry::Counter& b = registry.counter("mcu.invocations");
  EXPECT_EQ(&a, &b);  // two subsystems may share one counter
  EXPECT_EQ(registry.size(), 1u);

  a.add();
  b.add(4);
  EXPECT_EQ(a.value(), 5u);

  a.add_time(sim::SimTime::us(2));
  EXPECT_EQ(a.time(), sim::SimTime::us(2) + sim::SimTime::ps(5));
}

TEST(RegistryTest, GaugeTracksLevelAndHighWater) {
  telemetry::Registry registry;
  telemetry::Gauge& depth = registry.gauge("server.device_queue_depth");
  depth.set(3);
  depth.adjust(+2);
  depth.set(1);
  EXPECT_EQ(depth.value(), 1);
  EXPECT_EQ(depth.high_water(), 5);  // only ever rises
}

TEST(RegistryTest, SnapshotEnumeratesInRegistrationOrder) {
  telemetry::Registry registry;
  registry.counter("a.hits").add(7);
  registry.gauge("a.depth").set(-2);
  registry.counter("b.misses");

  const std::vector<telemetry::MetricSample> samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples[0].name, "a.hits");
  EXPECT_EQ(samples[0].kind, telemetry::MetricKind::kCounter);
  EXPECT_EQ(samples[0].value, 7u);
  EXPECT_EQ(samples[1].name, "b.misses");
  EXPECT_EQ(samples[1].value, 0u);
  EXPECT_EQ(samples[2].name, "a.depth");
  EXPECT_EQ(samples[2].kind, telemetry::MetricKind::kGauge);
  EXPECT_EQ(samples[2].high_water, 0);
}

TEST(RegistryTest, ResetZeroesValuesButKeepsRegistrations) {
  telemetry::Registry registry;
  telemetry::Counter& hits = registry.counter("hits");
  telemetry::Gauge& depth = registry.gauge("depth");
  hits.add(9);
  depth.set(4);

  registry.reset();
  EXPECT_EQ(registry.size(), 2u);          // registrations survive
  EXPECT_EQ(&registry.counter("hits"), &hits);  // handles stay valid
  EXPECT_EQ(hits.value(), 0u);
  EXPECT_EQ(depth.value(), 0);
  EXPECT_EQ(depth.high_water(), 0);  // high-water resets too

  hits.add();
  EXPECT_EQ(registry.find_counter("hits")->value(), 1u);
}

TEST(RegistryTest, CrossKindNameCollisionIsFatal) {
  telemetry::Registry registry;
  registry.counter("mcu.evictions");
  EXPECT_THROW(registry.gauge("mcu.evictions"), Error);
  registry.gauge("queue");
  EXPECT_THROW(registry.counter("queue"), Error);
}

TEST(RegistryTest, FindProbesWithoutRegistering) {
  telemetry::Registry registry;
  EXPECT_EQ(registry.find_counter("absent"), nullptr);
  EXPECT_EQ(registry.find_gauge("absent"), nullptr);
  EXPECT_EQ(registry.size(), 0u);
}

TEST(RegistryTest, CardStatsAreAViewOverTheRegistry) {
  // The refactor's core property: Mcu::stats() is built BY READING the
  // card's registry, so the enumerable counters and the snapshot struct
  // cannot drift apart.
  core::AgileCoprocessor card;
  card.download(KernelId::kSha256);
  card.download(KernelId::kAes128);
  const Bytes input = algorithms::bank_input(
      algorithms::function_id(KernelId::kSha256), 2, 1);
  card.invoke(KernelId::kSha256, input);
  card.invoke(KernelId::kSha256, input);

  const mcu::McuStats stats = card.mcu().stats();
  EXPECT_EQ(stats.invocations, 2u);
  const telemetry::Counter* invocations =
      card.registry().find_counter("mcu.invocations");
  ASSERT_NE(invocations, nullptr);
  EXPECT_EQ(invocations->value(), stats.invocations);
  EXPECT_EQ(card.registry().find_counter("mcu.config_hits")->value(),
            stats.config_hits);
  EXPECT_EQ(card.registry().find_counter("mcu.config_misses")->value(),
            stats.config_misses);
}

// --- trace sink (unit) ------------------------------------------------------

TEST(TraceSinkTest, MergeIsTheDeterministicTotalOrder) {
  telemetry::TraceSink sink;
  const std::uint32_t p1 = sink.add_process("card 0");
  const std::uint32_t p2 = sink.add_process("card 1");
  telemetry::TraceTrack* a = sink.add_track(p1, "engine", 0);
  telemetry::TraceTrack* b = sink.add_track(p2, "engine", 1);

  // Record out of time order and across tracks; merged() must come back
  // sorted by (ts, process, track, seq) regardless of append order.
  b->span("engine", "load", sim::SimTime::us(5), sim::SimTime::us(7));
  a->instant("fault", "late", sim::SimTime::us(9));
  a->span("engine", "load", sim::SimTime::us(1), sim::SimTime::us(2));
  a->span("engine", "decode", sim::SimTime::us(5), sim::SimTime::us(6));

  const std::vector<TraceEvent> merged = sink.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_STREQ(merged[0].name, "load");      // ts=1, card 0
  EXPECT_EQ(merged[0].card, 0);
  EXPECT_STREQ(merged[1].name, "decode");    // ts=5, process 1 < process 2
  EXPECT_EQ(merged[1].process, p1);
  EXPECT_STREQ(merged[2].name, "load");      // ts=5, process 2
  EXPECT_EQ(merged[2].process, p2);
  EXPECT_STREQ(merged[3].name, "late");      // ts=9, instant
  EXPECT_FALSE(merged[3].is_span());
  EXPECT_TRUE(merged[0].is_span());
}

TEST(TraceSinkTest, SpanEndingBeforeItBeginsIsFatal) {
  telemetry::TraceSink sink;
  telemetry::TraceTrack* t = sink.add_track(sink.add_process("p"), "lane");
  EXPECT_THROW(
      t->span("pci", "bad", sim::SimTime::us(2), sim::SimTime::us(1)), Error);
  EXPECT_TRUE(sink.empty());
}

TEST(TraceSinkTest, WriteChromeTraceEmitsNamedTracks) {
  telemetry::TraceSink sink;
  const std::uint32_t pid = sink.add_process("card 0");
  telemetry::TraceTrack* pci = sink.add_track(pid, "pci", 0);
  pci->span("pci", "pci-in", sim::SimTime::us(1), sim::SimTime::us(3),
            /*request=*/7, /*client=*/2, /*function=*/11);

  const std::string path =
      ::testing::TempDir() + "telemetry_trace_test.json";
  ASSERT_TRUE(sink.write_chrome_trace(path.c_str()));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 12, '\0');
  contents.resize(std::fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_NE(contents.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.find("\"process_name\""), std::string::npos);
  EXPECT_NE(contents.find("\"card 0\""), std::string::npos);
  EXPECT_NE(contents.find("\"pci-in\""), std::string::npos);
  // ts = 1us as fixed six-decimal microseconds; request arg present.
  EXPECT_NE(contents.find("\"ts\":1.000000"), std::string::npos);
  EXPECT_NE(contents.find("\"request\":7"), std::string::npos);
}

// --- trace spans on real server runs ----------------------------------------

// The four lanes CoprocessorServer::attach_trace registers, in order.
constexpr std::uint32_t kPciLane = 0;
constexpr std::uint32_t kEngineLane = 1;
constexpr std::uint32_t kFabricLane = 2;
constexpr std::uint32_t kBatchLane = 3;

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

std::vector<TraceEvent> lane(const std::vector<TraceEvent>& merged,
                             std::uint32_t track, std::uint32_t process = 1) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : merged)
    if (e.process == process && e.track == track) out.push_back(e);
  return out;
}

std::vector<TraceEvent> lane_spans(const std::vector<TraceEvent>& merged,
                                   std::uint32_t track,
                                   std::uint32_t process = 1) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : lane(merged, track, process))
    if (e.is_span()) out.push_back(e);
  return out;
}

// Hardware lanes mirror exclusively-booked resources: their spans must
// tile without overlap.
void expect_serialized(const std::vector<TraceEvent>& spans,
                       const char* which) {
  std::int64_t busy_until = 0;
  for (const TraceEvent& e : spans) {
    EXPECT_GE(e.ts_ps, busy_until)
        << which << " lane: span '" << e.name << "' overlaps its predecessor";
    busy_until = e.ts_ps + e.dur_ps;
  }
}

std::size_t count_named(const std::vector<TraceEvent>& events,
                        const char* name) {
  std::size_t n = 0;
  for (const TraceEvent& e : events)
    if (std::strcmp(e.name, name) == 0) ++n;
  return n;
}

TEST(ServerTraceTest, OverlapRunEmitsNestedLifecycleSpans) {
  workload::MultiClientConfig wc;
  wc.clients = 4;
  wc.requests_per_client = 8;
  wc.functions = algorithms::function_bank();
  wc.seed = 21;
  wc.zipf_s = 1.0;
  wc.payload_blocks = 2;
  wc.mode = workload::ArrivalMode::kOpenLoop;
  wc.mean_interarrival = sim::SimTime::us(80);
  const auto trace = workload::make_multi_client(wc);

  core::AgileCoprocessor card;
  card.download_all();
  card.registry().reset();  // the stage.* totals below cover the run only
  core::CoprocessorServer server(card);  // overlapped reconfiguration on
  telemetry::TraceSink sink;
  server.attach_trace(sink, "card 0", 0);
  workload::replay(server, trace, request_input);
  server.run();
  const core::ServerStats stats = server.stats();
  const std::vector<TraceEvent> merged = sink.merged();

  // Every lane only carries its own categories, stamped with the card.
  for (const TraceEvent& e : merged) EXPECT_EQ(e.card, 0);

  const auto pci = lane_spans(merged, kPciLane);
  const auto engine = lane_spans(merged, kEngineLane);
  const auto fabric = lane_spans(merged, kFabricLane);
  expect_serialized(pci, "pci");
  expect_serialized(engine, "engine");
  expect_serialized(fabric, "fabric");

  // One pci-in + one pci-out per completed request; one execute window per
  // completed request; one decode per committed batch (batch-of-one here,
  // so the engine's decode count IS the registry's batch counter).
  EXPECT_EQ(count_named(pci, "pci-in"), stats.completed);
  EXPECT_EQ(count_named(pci, "pci-out"), stats.completed);
  EXPECT_EQ(fabric.size(), stats.completed);
  EXPECT_EQ(count_named(engine, "decode"), stats.batches);
  EXPECT_EQ(stats.batches, stats.completed);  // BatchMode::kNone

  // Nesting per request: pci-in ends before its execute window begins, and
  // the execute window ends before pci-out begins.  Spans carry the args
  // the validator (scripts/check_trace.py) requires.
  std::map<std::int64_t, std::int64_t> pci_in_end, exec_begin, exec_end;
  for (const TraceEvent& e : pci)
    if (std::strcmp(e.name, "pci-in") == 0)
      pci_in_end[e.request] = e.ts_ps + e.dur_ps;
  for (const TraceEvent& e : fabric) {
    exec_begin[e.request] = e.ts_ps;
    exec_end[e.request] = e.ts_ps + e.dur_ps;
    EXPECT_GE(e.request, 0);
    EXPECT_GE(e.client, 0);
    EXPECT_GE(e.function, 0);
  }
  for (const TraceEvent& e : pci)
    if (std::strcmp(e.name, "pci-out") == 0) {
      ASSERT_TRUE(exec_end.contains(e.request));
      EXPECT_LE(exec_end[e.request], e.ts_ps);
    }
  for (const auto& [request, begin] : exec_begin) {
    ASSERT_TRUE(pci_in_end.contains(request));
    EXPECT_LE(pci_in_end[request], begin);
  }

  // The lanes and the card's stage.* counters are two views of one run and
  // must agree to the picosecond: the pci lane is the host-pci stage, and
  // each fabric window is data-in + execute + data-out.
  const auto busy_ps = [](const std::vector<TraceEvent>& spans) {
    std::uint64_t ps = 0;
    for (const TraceEvent& e : spans)
      ps += static_cast<std::uint64_t>(e.dur_ps);
    return ps;
  };
  const auto stage = [&card](const char* name) {
    const telemetry::Counter* counter = card.registry().find_counter(name);
    EXPECT_NE(counter, nullptr) << name;
    return counter != nullptr ? counter->value() : 0u;
  };
  EXPECT_GT(busy_ps(pci), 0u);
  EXPECT_EQ(busy_ps(pci), stage("stage.host-pci"));
  EXPECT_EQ(busy_ps(fabric), stage("stage.data-in") + stage("stage.execute") +
                                 stage("stage.data-out"));
}

TEST(ServerTraceTest, RefusedGreedyBatchEmitsHoldSpans) {
  // A 1024-bit ModExp executes while MatMul and FFT load behind it
  // (overlapped reconfiguration), pinning all 48 frames: the greedy SHA-256
  // batch the device policy picks next is refused until the fabric drains,
  // and the SHA-256 requests queued behind it coalesce into it.  The
  // refusal shows up as a batch-hold span on the (logical, overlappable)
  // batch lane, covering the time the batch stayed open.
  core::ServerConfig sc;
  sc.batch = core::BatchMode::kGreedy;

  core::AgileCoprocessor card;
  card.download_all();
  core::CoprocessorServer server(card, sc);
  telemetry::TraceSink sink;
  server.attach_trace(sink, "card 0", 0);
  const auto submit = [&server](unsigned client, KernelId kernel,
                                std::size_t blocks) {
    server.submit(client, kernel,
                  algorithms::spec(kernel).make_input(blocks, client));
  };
  submit(0, KernelId::kModExp, 4);  // 18 frames, ~1.3 ms on the fabric
  submit(1, KernelId::kMatMul, 2);  // 14 frames
  submit(2, KernelId::kFft, 6);     // 16 frames
  for (unsigned c = 3; c < 6; ++c) submit(c, KernelId::kSha256, 2);
  server.run();
  const core::ServerStats stats = server.stats();
  const std::vector<TraceEvent> merged = sink.merged();

  ASSERT_GT(stats.coalesced_loads, 0u);  // batching actually happened
  EXPECT_LT(stats.batches, stats.completed);

  // decode spans still count batches (leaders), and the fabric still runs
  // one execute window per member, serialized.
  const auto engine = lane_spans(merged, kEngineLane);
  const auto fabric = lane_spans(merged, kFabricLane);
  EXPECT_EQ(count_named(engine, "decode"), stats.batches);
  EXPECT_EQ(fabric.size(), stats.completed);
  expect_serialized(fabric, "fabric");

  const auto holds = lane_spans(merged, kBatchLane);
  EXPECT_GT(holds.size(), 0u);
  for (const TraceEvent& e : holds) {
    EXPECT_STREQ(e.name, "batch-hold");
    EXPECT_GE(e.function, 0);  // which function the window held for
    EXPECT_GT(e.dur_ps, 0);    // zero-delay holds are not recorded
  }
}

TEST(ServerTraceTest, FleetDispatchInstantsCarryTicketsInOrder) {
  // A strictly cyclic pattern over heavyweight kernels whose combined
  // footprint exceeds the fabric (so the next function in the cycle is
  // never still resident): every arrival is a miss, loaded on demand.  The
  // fleet's dispatch lane must stamp each routing decision with the ticket
  // it routed, in arrival order, and the card's engine lane must stay
  // serialized across the back-to-back decode/load windows.
  core::FleetConfig fc;
  fc.cards = 1;
  core::CoprocessorFleet fleet(fc);
  telemetry::TraceSink sink;
  fleet.attach_trace(sink, "fleet");
  fleet.download_all();

  const std::vector<memory::FunctionId> cycle = {
      algorithms::function_id(KernelId::kSha256),
      algorithms::function_id(KernelId::kAes128),
      algorithms::function_id(KernelId::kMatMul),
      algorithms::function_id(KernelId::kFft),
      algorithms::function_id(KernelId::kModExp)};
  const sim::SimTime base = fleet.now();  // download_all advanced the clock
  for (std::size_t i = 0; i < 25; ++i) {
    const memory::FunctionId fn = cycle[i % cycle.size()];
    fleet.submit_function_at(base + sim::SimTime::ms(3 * (i + 1)),
                             /*client=*/0, fn,
                             algorithms::bank_input(fn, 2, i),
                             [](const core::ServerRequest&) {});
  }
  fleet.run();
  const core::FleetStats stats = fleet.stats();
  const std::vector<TraceEvent> merged = sink.merged();
  ASSERT_EQ(stats.completed, 25u);

  // Process 1 is the fleet (dispatch lane); process 2 is card 0's lanes.
  const auto dispatch = lane(merged, 0, /*process=*/1);
  EXPECT_EQ(dispatch.size(), stats.submitted);
  std::int64_t ticket = 0;  // arrivals are in submission order here
  for (const TraceEvent& e : dispatch) {
    EXPECT_STREQ(e.name, "dispatch");
    EXPECT_EQ(e.request, ticket++);  // the fleet ticket being routed
    EXPECT_EQ(e.card, 0);  // which card the decision picked
  }

  const auto engine = lane_spans(merged, kEngineLane, /*process=*/2);
  expect_serialized(engine, "engine");
  EXPECT_EQ(count_named(engine, "decode"), stats.completed);
}

}  // namespace
}  // namespace aad
