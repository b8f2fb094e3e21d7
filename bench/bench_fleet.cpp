// Experiment F — sharded multi-card dispatch (CoprocessorFleet).
//
// One card's fabric and PCI bus bound the CoprocessorServer's throughput;
// the fleet shards the load across N cards on one simulated clock.  The
// dispatch policy decides the locality-vs-balance trade-off: round-robin
// spreads a hot function over every fabric (reconfiguring each time),
// residency-affinity chases the card that already holds the configuration
// and skips the reconfiguration entirely.  Three tables:
//
//   F1 — card-count scaling under closed-loop saturation (speedup vs 1 card),
//   F2 — dispatch-policy shoot-out at 4 cards on a Zipf-skewed trace,
//   F3 — policy hit rates across workload skew (uniform -> heavily skewed).
//
// Flags (bench_util.h parser): `--json results.json` captures the headline
// metrics machine-readably; `--cards N` caps the F1 scaling sweep
// (default 8).
#include "bench_util.h"

#include <vector>

#include "core/fleet.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;
using algorithms::KernelId;

using bench::request_input;

workload::MultiClientTrace saturation_trace(double zipf_s, std::uint64_t seed,
                                            unsigned clients = 16,
                                            std::size_t per_client = 24) {
  workload::MultiClientConfig wc;
  wc.clients = clients;
  wc.requests_per_client = per_client;
  wc.functions = algorithms::function_bank();
  wc.seed = seed;
  wc.zipf_s = zipf_s;
  wc.payload_blocks = 4;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  return workload::make_multi_client(wc);
}

core::FleetStats run_fleet(unsigned cards, core::DispatchPolicy policy,
                           const workload::MultiClientTrace& trace) {
  core::FleetConfig fc;
  fc.cards = cards;
  fc.policy = policy;
  core::CoprocessorFleet fleet(fc);
  if (auto* sink = bench::trace_sink())
    fleet.attach_trace(*sink, std::string("fleet cards=") +
                                  std::to_string(cards) + " " +
                                  core::to_string(policy));
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();
  return fleet.stats();
}

void card_scaling() {
  std::puts("\n=== F1: card-count scaling, residency-affinity dispatch ===");
  std::puts("(16 closed-loop clients saturating the fleet, zipf(1.1) over "
            "the full kernel bank; every card has its own PCI bus + fabric)");
  const std::vector<int> widths = {7, 10, 13, 12, 9, 10, 10, 8};
  bench::print_row({"cards", "requests", "makespan(ms)", "req/s", "speedup",
                    "p50(us)", "p99(us)", "hit%"},
                   widths);
  bench::print_rule(widths);

  const auto trace = saturation_trace(1.1, 7);
  const auto max_cards =
      static_cast<unsigned>(bench::flags().get_int("cards", 8));
  double base_rps = 0.0;
  for (unsigned cards : {1u, 2u, 4u, 8u}) {
    if (cards > max_cards) continue;
    const auto stats =
        run_fleet(cards, core::DispatchPolicy::kResidencyAffinity, trace);
    if (cards == 1) base_rps = stats.throughput_rps;
    const double speedup = stats.throughput_rps / base_rps;

    bench::print_row(
        {std::to_string(cards), bench::fmt_u(stats.completed),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.2fx", speedup),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt("%.0f", 100.0 * stats.hit_rate)},
        widths);

    const std::string suffix = "_cards" + std::to_string(cards);
    bench::json().set("fleet_throughput_rps" + suffix, stats.throughput_rps);
    bench::json().set("fleet_speedup" + suffix, speedup);
    bench::json().set("fleet_hit_rate" + suffix, stats.hit_rate);
    bench::json().set("fleet_p99_us" + suffix,
                      stats.latency.p99.microseconds());
  }
}

void policy_shootout() {
  std::puts("\n=== F2: dispatch policies, 4 cards, zipf(1.1) trace ===");
  std::puts("(same trace through three fleets; affinity routes a request to "
            "a card already holding the function's configuration, so the "
            "reconfiguration is skipped on arrival)");
  const std::vector<int> widths = {20, 8, 10, 10, 10, 11, 10};
  bench::print_row({"policy", "hit%", "req/s", "p50(us)", "p99(us)",
                    "aff-routed", "fallback"},
                   widths);
  bench::print_rule(widths);

  const auto trace = saturation_trace(1.1, 11);
  struct Row {
    core::DispatchPolicy policy;
    const char* key;
  };
  for (const Row row : {Row{core::DispatchPolicy::kRoundRobin, "round_robin"},
                        Row{core::DispatchPolicy::kLeastQueued, "least_queued"},
                        Row{core::DispatchPolicy::kResidencyAffinity,
                            "affinity"}}) {
    const auto stats = run_fleet(4, row.policy, trace);
    bench::print_row(
        {core::to_string(row.policy),
         bench::fmt("%.1f", 100.0 * stats.hit_rate),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt_u(stats.affinity_routed),
         bench::fmt_u(stats.affinity_fallback)},
        widths);
    bench::json().set(std::string("fleet_hit_rate_") + row.key,
                      stats.hit_rate);
    bench::json().set(std::string("fleet_throughput_rps_") + row.key,
                      stats.throughput_rps);
    if (row.policy == core::DispatchPolicy::kResidencyAffinity) {
      // Load-cost telemetry (fleet-wide MCU counters).  Delta
      // reconfiguration is off under the default card config, so
      // delta-routed and frames-skipped pin at zero here — bench_codec C4
      // exercises the cheap-delta tier; bytes_streamed tracks the ROM
      // traffic misses actually paid for.
      std::printf("(affinity telemetry: %llu bytes streamed from ROM, "
                  "%llu delta-matched frames skipped, %llu delta-routed)\n",
                  static_cast<unsigned long long>(stats.bytes_streamed),
                  static_cast<unsigned long long>(stats.frames_skipped_delta),
                  static_cast<unsigned long long>(stats.delta_routed));
      bench::json().set("fleet_bytes_streamed", stats.bytes_streamed);
      bench::json().set("fleet_frames_skipped_delta",
                        stats.frames_skipped_delta);
      bench::json().set("fleet_delta_routed", stats.delta_routed);
    }
  }
}

void skew_sweep() {
  std::puts("\n=== F3: configuration hit rate vs workload skew, 4 cards ===");
  std::puts("(affinity routing partitions the function bank across the "
            "fabrics, so it wins at every skew; round-robin only closes the "
            "gap once skew concentrates traffic on a head small enough to "
            "stay resident on every card)");
  const std::vector<int> widths = {10, 16, 14, 12};
  bench::print_row({"zipf s", "round-robin h%", "affinity h%", "delta"},
                   widths);
  bench::print_rule(widths);

  for (const double s : {0.0, 0.6, 1.1, 1.5}) {
    const auto trace = saturation_trace(s, 17, 12, 16);
    const auto rr = run_fleet(4, core::DispatchPolicy::kRoundRobin, trace);
    const auto aff =
        run_fleet(4, core::DispatchPolicy::kResidencyAffinity, trace);
    bench::print_row({bench::fmt("%.1f", s),
                      bench::fmt("%.1f", 100.0 * rr.hit_rate),
                      bench::fmt("%.1f", 100.0 * aff.hit_rate),
                      bench::fmt("%+.1f", 100.0 * (aff.hit_rate - rr.hit_rate))},
                     widths);
    const std::string suffix = bench::fmt("_s%.1f", s);
    bench::json().set("fleet_skew_rr_hit" + suffix, rr.hit_rate);
    bench::json().set("fleet_skew_aff_hit" + suffix, aff.hit_rate);
  }
}

void BM_FleetSaturatedDispatch(benchmark::State& state) {
  // Simulator wall-clock cost per request through a 4-card fleet.
  const auto trace = saturation_trace(1.1, 3, 8, 8);
  for (auto _ : state) {
    state.PauseTiming();
    core::FleetConfig fc;
    fc.cards = 4;
    fc.policy = core::DispatchPolicy::kResidencyAffinity;
    core::CoprocessorFleet fleet(fc);
    fleet.download_all();
    state.ResumeTiming();
    workload::replay(fleet, trace, request_input);
    fleet.run();
    benchmark::DoNotOptimize(fleet.stats().completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.total_requests()));
  state.SetLabel("requests through 4 sharded pipelines");
}
BENCHMARK(BM_FleetSaturatedDispatch)->Unit(benchmark::kMillisecond);

}  // namespace

void run_experiment() {
  card_scaling();
  policy_shootout();
  skew_sweep();
}
