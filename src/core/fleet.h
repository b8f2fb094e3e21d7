// CoprocessorFleet: N independent agile-coprocessor cards behind one
// dispatch point.
//
// One CoprocessorServer pipelines one card, so a single fabric and one PCI
// bus bound throughput.  The fleet shards the load: every card keeps its
// own PCI bus, MCU and fabric (they really are separate PCI devices), but
// all of them are driven by ONE shared discrete-event scheduler, so
// cross-card overlap — four reconfigurations in flight at once, DMA on
// four buses — is simulated faithfully on a single simulated clock.
//
// Cross-card work — dispatch and routing reads, fault plans, watchdog
// timers, refugee re-dispatch — posts to that same queue, and one host
// thread drives it all.
//
//   host application
//     └─ CoprocessorFleet ── dispatch policy (round-robin / least-queued /
//         │                  residency-affinity)
//         ├─ CoprocessorServer ── AgileCoprocessor   card 0 (own bus+fabric)
//         ├─ CoprocessorServer ── AgileCoprocessor   card 1
//         └─ ...                                     card N-1
//
// Dispatch is deferred to each request's ARRIVAL time, not its submission
// time: an open-loop trace is pre-scheduled long before it runs, and only
// at arrival does the policy see true queue depths and fabric residency.
// The dispatch hop preserves FIFO order among same-timestamp arrivals; the
// one observable difference from a bare CoprocessorServer is an arrival
// whose timestamp exactly collides with an in-flight request's bus event
// (integer-picosecond times make that vanishingly rare).
// That is what makes residency-affinity meaningful — the paper's win is
// skipping reconfiguration on a configuration hit, so the router steers a
// request to a card whose MCU already holds the function's bitstream
// configuration (falling back to least-queued when no card does), trading
// load balance for configuration locality.
//
// Arrival is also where the request's fleet ticket opens.  Every request
// takes the same ticketed path: the ticket follows it across cards (card
// death, watchdog retry) until its one completion or failure.
//
// Typical use:
//
//   aad::core::FleetConfig fc;
//   fc.cards = 4;
//   fc.policy = aad::core::DispatchPolicy::kResidencyAffinity;
//   aad::core::CoprocessorFleet fleet(fc);
//   fleet.download_all();                 // provision every card's ROM
//   workload::replay(fleet, trace, make_input);   // same surface as a server
//   fleet.run();
//   auto st = fleet.stats();              // fleet-wide + per-card breakdown
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/server.h"
#include "sim/fault.h"

namespace aad::core {

/// How the fleet picks a card for an arriving request.
enum class DispatchPolicy {
  kRoundRobin,         ///< cards in cyclic order, ignoring state
  kLeastQueued,        ///< fewest in-flight requests (ties: lowest card)
  kResidencyAffinity,  ///< tiered: a card holding an OPEN batch for the
                       ///< function (CoprocessorServer::open_batch_for: a
                       ///< greedy batch the fabric refused and will retry —
                       ///< the request joins it and shares its one
                       ///< decode+load), else a card where the function is
                       ///< already configured or inbound on an in-flight
                       ///< request (ties: least-queued among them), else —
                       ///< when delta reconfiguration tracks frame contents
                       ///< and FleetConfig::cost_routing is on — the card
                       ///< with the cheapest modeled load among those
                       ///< matching at least one frame
                       ///< (Mcu::estimate_load), else least-queued
};

const char* to_string(DispatchPolicy policy);

/// Request watchdog at the fleet edge.  A dispatched request that has not
/// completed within `timeout` is pulled back (CoprocessorServer::try_cancel
/// — a committed request rides to completion instead) and redispatched
/// after an exponentially growing backoff, up to `max_retries` extra
/// attempts; exhaustion surfaces the request as failed (FailReason::
/// kTimeout).  `timeout` zero disables the watchdog: no timer is scheduled.
struct RetryConfig {
  sim::SimTime timeout;               ///< zero = watchdog disabled
  unsigned max_retries = 2;           ///< redispatches after the first try
  double backoff = 2.0;               ///< delay multiplier per retry
  sim::SimTime backoff_base = sim::SimTime::us(100);  ///< first retry delay
};

struct FleetConfig {
  unsigned cards = 2;
  DispatchPolicy policy = DispatchPolicy::kResidencyAffinity;
  /// Applied to every card — the fleet is homogeneous (heterogeneous
  /// fleets are a later PR; the dispatch seam is already here).
  CoprocessorConfig card;
  /// Per-card pipeline knobs: device-queue policy (FIFO / resident-first /
  /// shortest-reconfiguration-first), overlapped reconfiguration, and
  /// same-function batching (ServerConfig::batch).  The fleet dispatch
  /// policy and the per-card policies compose: dispatch picks the card,
  /// the device policy orders that card's ready queue, and greedy batching
  /// coalesces same-function picks into shared-load batches.
  ServerConfig server;
  /// kResidencyAffinity only: enable the cheap-delta tier — when no card
  /// holds (or is loading) the function, route to the card whose delta
  /// tracker predicts the cheapest load instead of merely the shortest
  /// queue.  Inert unless the cards run with engine.delta_reconfig on;
  /// turn it off to compare binary residency-affinity against
  /// cheapest-expected-reconfig routing (bench_codec does).
  bool cost_routing = true;
  /// Declarative fault schedule (sim/fault.h): card deaths + recoveries and
  /// ROM corruptions.  Armed lazily at the FIRST fleet submission — plan
  /// times are relative to that instant, so provisioning time (which varies
  /// with the function set) never shifts the schedule.  An empty plan adds
  /// no events and changes nothing.
  sim::FaultPlan faults;
  /// Timeout + bounded-retry watchdog (see RetryConfig).  Disabled (zero
  /// timeout) by default.
  RetryConfig retry;
};

/// One card's view of the fleet, captured by CoprocessorFleet::stats().
struct FleetCardStats {
  unsigned card = 0;
  ServerStats server;            ///< this card's pipeline stats
  std::uint64_t dispatched = 0;  ///< requests the policy routed here
  std::uint64_t config_hits = 0;    ///< completed with the config resident
  std::uint64_t config_misses = 0;  ///< completed after a reconfiguration
  double hit_rate = 0.0;         ///< hits / completed
  std::size_t queue_depth = 0;   ///< in-flight on this card right now
  std::size_t resident = 0;      ///< functions on this card's fabric now
  bool alive = true;             ///< powered on right now
  std::uint64_t deaths = 0;      ///< times this card died (FaultPlan)
};

struct FleetStats {
  /// Fleet tickets plus requests submitted directly to an exposed per-card
  /// server; affinity_routed + affinity_fallback counts only the former.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  sim::SimTime makespan;          ///< first submission -> last completion
  double throughput_rps = 0.0;    ///< completed per simulated second
  LatencySummary latency;         ///< merged over every card's requests
  std::uint64_t config_hits = 0;
  std::uint64_t config_misses = 0;
  double hit_rate = 0.0;          ///< fleet-wide configuration hit rate
  sim::SimTime total_bus_wait;    ///< summed over all cards' buses
  sim::SimTime total_device_wait; ///< engine + fabric wait, fleet-wide
  sim::SimTime total_engine_wait;
  sim::SimTime total_fabric_wait;
  sim::SimTime total_hidden_reconfig;  ///< reconfig overlapped with execution
  std::uint64_t overlapped_loads = 0;
  // Batch amortization, fleet-wide (see ServerStats):
  std::uint64_t batches = 0;
  std::uint64_t coalesced_loads = 0;
  double mean_batch_size = 0.0;  ///< members per committed batch, fleet-wide
  sim::SimTime total_amortized_reconfig;
  // Load-cost telemetry, fleet-wide (summed over the cards' MCU counters;
  // see ServerStats):
  std::uint64_t frames_skipped_delta = 0;
  std::uint64_t bytes_streamed = 0;
  std::map<compress::CodecId, std::uint64_t> codec_picks;
  /// Residency-affinity accounting (zero under the other policies):
  std::uint64_t affinity_routed = 0;    ///< sent to a card holding the config
                                        ///< (resident, or inbound in flight)
  std::uint64_t delta_routed = 0;       ///< cheap-delta tier: sent to the
                                        ///< card with the cheapest modeled
                                        ///< load (partial frame match)
  std::uint64_t affinity_fallback = 0;  ///< no card held or was loading it:
                                        ///< least-queued
  // Fault injection + recovery (zero in a fault-free run):
  std::uint64_t deaths = 0;        ///< card power-offs, fleet-wide
  std::uint64_t redispatched = 0;  ///< refugees resubmitted to a survivor
  std::uint64_t retries = 0;       ///< watchdog-driven redispatches
  std::uint64_t timeouts = 0;      ///< watchdog expirations that pulled a
                                   ///< request back (committed ones ride)
  /// Terminal failures surfaced to the submitter: fleet-level (no survivor,
  /// retries exhausted) plus card-level (CRC rejects).  Every submitted
  /// request ends in exactly one of completed/failed.
  std::uint64_t failed = 0;
  std::uint64_t crc_rejects = 0;   ///< corrupted-bitstream load rejections
  std::uint64_t refetches = 0;     ///< ROM repairs from the pristine copy
  std::vector<FleetCardStats> cards;    ///< per-card breakdown, by index
};

class CoprocessorFleet {
 public:
  using Completion = CoprocessorServer::Completion;

  explicit CoprocessorFleet(const FleetConfig& config = {});

  // Every card's MCU pipeline holds a reference to scheduler_, so the
  // fleet must stay put.
  CoprocessorFleet(const CoprocessorFleet&) = delete;
  CoprocessorFleet& operator=(const CoprocessorFleet&) = delete;
  CoprocessorFleet(CoprocessorFleet&&) = delete;
  CoprocessorFleet& operator=(CoprocessorFleet&&) = delete;

  // --- provisioning --------------------------------------------------------
  // Every card gets its own copy of the function (separate ROMs).  The
  // downloads share the simulated clock, so card i+1's provisioning starts
  // after card i's finishes — one host, one provisioning thread.

  void download(algorithms::KernelId kernel,
                std::optional<compress::CodecId> codec = std::nullopt);
  void download_bitstream(memory::FunctionId id,
                          const bitstream::Bitstream& bitstream,
                          std::optional<compress::CodecId> codec = std::nullopt);
  void download_all(std::optional<compress::CodecId> codec = std::nullopt);

  // --- submission ----------------------------------------------------------
  // Same surface as CoprocessorServer, so workload::replay drives a fleet
  // unchanged.  The returned id is a fleet-wide ticket (dense submission
  // order), NOT the per-card ServerRequest::id — the card is not chosen
  // until the request arrives.

  std::uint64_t submit(unsigned client, algorithms::KernelId kernel,
                       Bytes input, Completion done = {});
  std::uint64_t submit_function(unsigned client, memory::FunctionId function,
                                Bytes input, Completion done = {});
  std::uint64_t submit_function_at(sim::SimTime when, unsigned client,
                                   memory::FunctionId function, Bytes input,
                                   Completion done = {});

  // --- event loop ----------------------------------------------------------

  /// Run until every card is idle (closed-loop completions included).
  std::size_t run();
  /// Run events up to `deadline`; in-flight requests stay queued.
  std::size_t run_until(sim::SimTime deadline);

  // --- dispatch ------------------------------------------------------------

  /// The card the policy would route `function` to right now, given current
  /// queue depths and residency — the same decision an arriving request
  /// gets, but WITHOUT advancing any dispatch state (round-robin cursor,
  /// affinity counters), so it is safe to probe from tests and demos.
  unsigned preview_card(memory::FunctionId function) const;

  // --- introspection -------------------------------------------------------

  sim::SimTime now() const noexcept { return scheduler_.now(); }
  unsigned card_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  DispatchPolicy policy() const noexcept { return policy_; }
  /// Direct access to one shard.  Inspection (mcu(), stats(), bus()) is
  /// always safe; the card's SYNCHRONOUS paths (invoke, preload, evict,
  /// defragment — and provisioning) advance the fleet-shared clock and
  /// execute any pending events on it, so only use them while the fleet is
  /// quiescent (no requests in flight), as download*/the benches do.
  AgileCoprocessor& card(unsigned index);
  CoprocessorServer& server(unsigned index);
  const CoprocessorServer& server(unsigned index) const;
  /// The one event queue every card and the fleet itself schedule on.
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  /// Simulation-wide quiescence / live-event count.
  bool sim_idle() const noexcept { return scheduler_.idle(); }
  std::size_t sim_pending() const noexcept { return scheduler_.pending(); }
  /// Submitted but not yet completed, fleet-wide (dispatched or not).
  std::uint64_t in_flight() const;
  /// Fleet-wide totals plus the per-card breakdown.
  FleetStats stats() const;

  // --- telemetry -----------------------------------------------------------

  /// Open Chrome-trace lanes for the whole fleet: one `label` process with
  /// a dispatch/fault lane, plus one process per card ("<label>/card i")
  /// with its pci/engine/fabric/batch lanes (CoprocessorServer::
  /// attach_trace).  Call before running; the sink must outlive the fleet.
  void attach_trace(telemetry::TraceSink& sink,
                    const std::string& label = "fleet");
  /// The fleet's own counter registry (routing tiers, faults, retries);
  /// each card's registry is at card(i).registry().
  telemetry::Registry& registry() noexcept { return registry_; }
  const telemetry::Registry& registry() const noexcept { return registry_; }

  // --- fault injection + recovery ------------------------------------------
  // FleetConfig::faults drives these through scheduled events; they are
  // public so tests and harnesses can inject faults imperatively too.

  /// Power the card off NOW: every pending event on its pipeline is
  /// cancelled, its fabric erased (recovery starts cold), and every request
  /// it held — queued or committed — is redispatched to a surviving card
  /// (at-least-once: a committed request's device work is lost and redone)
  /// or failed with FailReason::kCardDeath when no card survives.  No-op on
  /// an already-dead card.
  void kill_card(unsigned index);
  /// Power the card back on.  It rejoins dispatch with a cold fabric; the
  /// ROM (host-provisioned flash) survives the outage.
  void revive_card(unsigned index);
  bool card_alive(unsigned index) const {
    AAD_REQUIRE(index < card_count(), "card index out of range");
    return shards_[index].alive;
  }

 private:
  struct Shard {
    std::unique_ptr<AgileCoprocessor> card;
    std::unique_ptr<CoprocessorServer> server;
    std::uint64_t dispatched = 0;
    bool alive = true;
    std::uint64_t deaths = 0;
    sim::SimTime death_time;  ///< last power-off (the dead-interval span)
  };
  /// Fleet-edge bookkeeping for one ticket, from its arrival to its single
  /// completion or failure.  The payload lives HERE only while the ticket
  /// is between cards (pulled back, awaiting redispatch); on a card, the
  /// server holds it and hands it back through try_cancel/power_off.
  struct TicketState {
    unsigned client = 0;
    memory::FunctionId function = 0;
    Bytes input;
    Completion done;               ///< the submitter's hook (fired once)
    sim::SimTime submit_time;
    unsigned attempts = 0;         ///< dispatches so far
    bool on_card = false;
    unsigned card = 0;             ///< valid while on_card
    std::uint64_t card_request = 0;
    std::optional<sim::EventId> timeout_event;
  };

  unsigned least_queued() const;
  unsigned choose(memory::FunctionId function, bool& affinity_hit,
                  bool& delta_hit) const;
  /// preview_card + the state updates (cursor, affinity counters).
  unsigned route(memory::FunctionId function);
  bool any_alive() const;
  /// Schedule the fault plan's events, offset by now() (first submission).
  void arm_faults();
  void dispatch_ticket(std::uint64_t ticket);
  void on_card_complete(std::uint64_t ticket, const ServerRequest& request);
  void on_timeout(std::uint64_t ticket);
  /// Terminal failure: synthesize a failed ServerRequest and fire the
  /// submitter's hook exactly once.
  void fail_ticket(std::uint64_t ticket, FailReason reason);

  DispatchPolicy policy_;
  bool cost_routing_;
  sim::Scheduler scheduler_;
  std::vector<Shard> shards_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t undispatched_ = 0;  ///< scheduled arrivals not yet routed
  std::uint64_t rr_cursor_ = 0;
  // Fault machinery: an empty plan arms nothing, a zero timeout schedules
  // no watchdog timer.
  bool faults_armed_ = false;
  sim::FaultPlan faults_;
  RetryConfig retry_;
  /// Arrived, unfinished requests only: a ticket opens at its arrival event
  /// and closes at its completion or terminal failure.
  std::map<std::uint64_t, TicketState> tickets_;

  /// Fleet-level counter registry (the cards each own their own — see
  /// AgileCoprocessor::registry()).
  telemetry::Registry registry_;
  // Registry handles — the `fleet.*` counter block; FleetStats snapshots
  // them (registered at construction, bumped on the dispatch/fault paths).
  struct Counters {
    telemetry::Counter& affinity_routed;
    telemetry::Counter& delta_routed;
    telemetry::Counter& affinity_fallback;
    telemetry::Counter& deaths;
    telemetry::Counter& redispatched;
    telemetry::Counter& retries;
    telemetry::Counter& timeouts;
    telemetry::Counter& failed;  ///< fleet-level terminal failures
  };
  Counters counters_;
  /// The fleet's dispatch/fault lane; null until attach_trace.
  telemetry::TraceTrack* fleet_track_ = nullptr;
};

}  // namespace aad::core
