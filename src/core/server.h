// CoprocessorServer: the event-driven, multi-client front end of the card.
//
// The synchronous AgileCoprocessor::invoke folds a whole invocation into one
// blocking call.  The server instead drives every request through the
// discrete-event scheduler as five staged events,
//
//   submit ──► PCI data-in ──► decode ──► load ──► execute ──► PCI data-out
//                              └─ config engine ─┘   fabric
//
// with three shared resources arbitrated independently:
//   * the PCI bus           — one transfer at a time (pci::PciBus::acquire),
//   * the config engine     — MCU firmware decode + the on-demand load
//                             (eviction + streaming reconfiguration),
//   * the fabric            — RAM staging + execution, one function at a time.
//
// Because the resources are independent, request B's input DMA overlaps
// request A's reconfiguration or execution, and — when overlap_reconfig is
// on — request B's *reconfiguration* streams through the config engine
// while request A still owns the fabric.  That is legal exactly when B's
// allocated frames are disjoint from every executing function's frames; the
// server guarantees it by pinning every function with an outstanding fabric
// window (mcu::Mcu::pin) for the duration of B's load, so the eviction loop
// can never touch them, and by serializing behind the fabric when
// mcu::Mcu::load_feasible says the pinned frames fragment the device too
// much.  The device-ready queue is ordered by a DevicePolicy (FIFO baseline
// — bit-exact with the pre-split single-resource server when
// overlap_reconfig is off — plus resident-first and
// shortest-reconfiguration-first; see core/device_scheduler.h).
//
// Under BatchMode::kGreedy the policy's pick takes up to 15 queued
// SAME-FUNCTION requests along into one batch: the batch shares a single
// firmware decode and a single on-demand load, then runs back-to-back
// fabric windows, so one reconfiguration is amortized across every member.
// The batch's function holds a pin reference (mcu::Mcu::pin is refcounted)
// from load commit until its last window retires, so overlapped loads of
// other functions can never evict it mid-batch.  BatchMode::kNone (the
// default) serves every request as a batch of one and is bit-exact with
// the unbatched server.
//
// A request whose payload the kernel rejects (or that overflows the card's
// local RAM) fails alone with FailReason::kBadInput; its batch-mates and
// every other request run on.  A request for a function the card's ROM was
// never provisioned with fails the same way, with its batch.
//
// stats() reports per-request latency percentiles, throughput, and the wait
// attribution split into bus/engine/fabric, plus the total reconfiguration
// time hidden behind execution.  One server pipelines one card;
// core::CoprocessorFleet (fleet.h) shards N of these pipelines behind a
// dispatch policy that composes with the per-card device policy.
//
// Typical use:
//
//   aad::core::AgileCoprocessor card;
//   card.download_all();
//   aad::core::ServerConfig sc;
//   sc.device_policy = aad::core::DevicePolicy::kResidentFirst;
//   aad::core::CoprocessorServer server(card, sc);
//   server.submit(/*client=*/0, KernelId::kAes128, input_a);
//   server.submit(/*client=*/1, KernelId::kSha256, input_b);
//   server.run();                       // drain the event queue
//   auto st = server.stats();           // p50/p99 latency, hidden reconfig
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/coprocessor.h"
#include "core/device_scheduler.h"
#include "telemetry/registry.h"
#include "telemetry/trace_sink.h"

namespace aad::core {

/// Why a request surfaced as failed instead of completing with output.
enum class FailReason : std::uint8_t {
  kNone = 0,
  kCardDeath,   ///< the card powered off with the request on it, no survivor
  kTimeout,     ///< the fleet's watchdog expired and retries were exhausted
  kCrcReject,   ///< corrupted bitstream: load rejected even after re-fetch
  kBadInput,    ///< the kernel rejected the payload, it overflowed RAM, or
                ///< the function is not provisioned in the card's ROM
};

/// One completed (or in-flight) request, with its full time breakdown.
struct ServerRequest {
  std::uint64_t id = 0;          ///< submission order, dense from 0
  unsigned client = 0;           ///< logical client that issued it
  memory::FunctionId function = 0;
  Bytes output;
  mcu::LoadResult load;          ///< hit/miss + reconfiguration breakdown
  std::int64_t exec_cycles = 0;

  sim::SimTime submit_time;      ///< arrival at the host driver
  sim::SimTime pci_in_start;     ///< bus granted for the input DMA
  sim::SimTime device_ready;     ///< input DMA done; entered the device queue
  sim::SimTime device_start;     ///< config engine begins firmware decode
  sim::SimTime fabric_start;     ///< fabric begins RAM staging + execution
  sim::SimTime pci_out_start;    ///< bus granted for the output DMA
  sim::SimTime complete_time;    ///< host observes completion

  sim::SimTime pci_in_time;      ///< command setup + input DMA occupancy
  sim::SimTime decode_time;      ///< firmware command decode
  sim::SimTime prepare_time;     ///< decode + eviction + reconfiguration
  sim::SimTime execute_time;     ///< RAM staging + fabric execution
  sim::SimTime pci_out_time;     ///< output DMA + status occupancy
  sim::SimTime bus_wait;         ///< PCI arbitration queuing delay
  sim::SimTime engine_wait;      ///< device_ready -> config engine grant
  sim::SimTime fabric_wait;      ///< load done -> fabric grant
  sim::SimTime device_wait;      ///< engine_wait + fabric_wait
  /// Reconfiguration (+eviction) time that ran while another request's
  /// fabric execution was still in flight — the overlap win.  Zero when the
  /// load was a hit, the fabric was idle, or overlap is disabled.
  sim::SimTime hidden_reconfig;

  // Batch accounting (BatchMode).  Without batching every
  // request is its own batch of one.
  std::uint64_t batch_id = 0;    ///< device commit this request rode, dense
  std::uint32_t batch_size = 1;  ///< members of that commit
  /// True when this request shared a batch-mate's decode + load instead of
  /// paying its own engine occupancy (decode_time and prepare_time are
  /// zero; the load was the batch leader's).
  bool coalesced_load = false;

  /// Terminal failure: the request is done (its completion hook fired
  /// exactly once) but produced no output.  Failed records are excluded
  /// from latency/throughput statistics.
  bool failed = false;
  FailReason fail_reason = FailReason::kNone;

  sim::SimTime latency() const noexcept { return complete_time - submit_time; }
};

struct LatencySummary {
  sim::SimTime min, mean, p50, p90, p99, max;
};

/// Nearest-rank percentile summary of a latency sample (sorted in place):
/// the q-quantile is the smallest sample value with at least a fraction q
/// of the sample at or below it, i.e. sorted[ceil(q*n) - 1].  A single
/// sample is its own p50/p90/p99; with n < 100 the p99 is simply the max
/// (ceil(0.99*n) == n for 1 <= n <= 100).  Zeroes on an empty sample.
/// Shared by CoprocessorServer::stats() and the fleet-wide aggregation in
/// CoprocessorFleet::stats().
LatencySummary summarize_latencies(std::vector<sim::SimTime> latencies);

/// Members per committed batch: every batch is one leader plus its
/// coalesced followers, so the member total is batches + coalesced_loads.
/// Zero when nothing committed.  Shared by CoprocessorServer::stats() and
/// CoprocessorFleet::stats() so the two levels can never drift apart.
inline double mean_batch_size(std::uint64_t batches,
                              std::uint64_t coalesced_loads) noexcept {
  if (batches == 0) return 0.0;
  return static_cast<double>(batches + coalesced_loads) /
         static_cast<double>(batches);
}

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< successfully (failed ones not counted)
  std::uint64_t failed = 0;      ///< surfaced as failed (CRC reject, ...)
  std::uint64_t cancelled = 0;   ///< pulled back before commit (timeout
                                 ///< redispatch) or orphaned by power_off
  std::uint64_t crc_rejects = 0; ///< MCU-level corrupted-bitstream rejects
  std::uint64_t refetches = 0;   ///< pristine-stream ROM repairs that worked
  sim::SimTime makespan;         ///< first submission -> last completion
  double throughput_rps = 0.0;   ///< completed per simulated second
  LatencySummary latency;        ///< over completed requests
  sim::SimTime total_bus_wait;
  sim::SimTime total_device_wait;    ///< engine + fabric wait, summed
  sim::SimTime total_engine_wait;    ///< queued for the config engine
  sim::SimTime total_fabric_wait;    ///< load done, fabric still busy
  sim::SimTime total_hidden_reconfig;  ///< reconfig overlapped with execution
  std::uint64_t overlapped_loads = 0;  ///< loads that ran during execution
  // Batch amortization (commit-time accounting: counts every committed
  // batch and member, including ones whose PCI-out is still in flight).
  std::uint64_t batches = 0;           ///< device commits (each >= 1 request)
  std::uint64_t coalesced_loads = 0;   ///< members that shared the leader's
                                       ///< decode + load
  double mean_batch_size = 0.0;        ///< members per committed batch
  /// Config-engine occupancy (decode + load) the coalesced members shared
  /// instead of re-paying: the leader's prepare_time, once per follower.
  sim::SimTime total_amortized_reconfig;
  // Load-cost telemetry, mirrored from the card's MCU counters (so the
  // fleet can merge it per shard): frames the delta tracker skipped,
  // compressed bytes actually fetched from ROM by loads, and which codec
  // each stored function ended up with (the auto pick's record).
  std::uint64_t frames_skipped_delta = 0;
  std::uint64_t bytes_streamed = 0;
  std::map<compress::CodecId, std::uint64_t> codec_picks;
};

/// Per-server policy knobs.  The defaults (FIFO + overlap) serve requests
/// in data-arrival order while hiding reconfigurations behind execution;
/// {kFifo, overlap_reconfig = false} reproduces the pre-split
/// single-resource device stage bit-exactly (the regression tests pin this).
struct ServerConfig {
  DevicePolicy device_policy = DevicePolicy::kFifo;
  /// Stream a queued request's configuration while the fabric executes
  /// another (frames permitting).  Off = decode+load+execute serialize per
  /// request, exactly the old one-busy-until-scalar device stage.
  bool overlap_reconfig = true;
  /// Same-function request coalescing.  The default (kNone) serves every
  /// request as a batch of one, bit-exact with the unbatched server.
  BatchMode batch = BatchMode::kNone;
};

class CoprocessorServer {
 public:
  /// Completion hook, fired from inside the event loop when the request's
  /// output DMA finishes.  May submit further requests (closed-loop clients).
  using Completion = std::function<void(const ServerRequest&)>;

  /// The card must outlive the server.  Functions are provisioned through
  /// the card as before (download / download_all).
  explicit CoprocessorServer(AgileCoprocessor& card,
                             const ServerConfig& config = {});

  // --- submission ----------------------------------------------------------

  /// Queue an invocation arriving now.  Returns the request id.
  std::uint64_t submit(unsigned client, algorithms::KernelId kernel,
                       Bytes input, Completion done = {});
  std::uint64_t submit_function(unsigned client, memory::FunctionId function,
                                Bytes input, Completion done = {});
  /// Queue an invocation arriving at absolute time `when` (>= now) —
  /// open-loop traffic.
  std::uint64_t submit_function_at(sim::SimTime when, unsigned client,
                                   memory::FunctionId function, Bytes input,
                                   Completion done = {});

  // --- event loop ----------------------------------------------------------

  /// Run until every submitted request (including any submitted by
  /// completion hooks) has finished.  Returns events executed.
  std::size_t run();
  /// Run events up to `deadline`; in-flight requests stay queued.
  std::size_t run_until(sim::SimTime deadline);

  // --- introspection -------------------------------------------------------

  sim::SimTime now() const noexcept { return card_.now(); }
  std::size_t in_flight() const noexcept { return in_flight_; }
  const ServerConfig& config() const noexcept { return config_; }
  /// Requests whose input DMA finished but the config engine has not yet
  /// accepted them (what the DevicePolicy reorders).
  std::size_t device_queue_depth() const noexcept {
    return device_queue_.size();
  }
  /// Is any in-flight request for `function` heading to this card whose
  /// load has not yet committed?  The fleet's residency-affinity router
  /// counts an inbound configuration like a resident one: by the time a
  /// new arrival reaches the device stage, the inbound request will have
  /// loaded it (or be queued ahead doing so).  Once the load commits,
  /// Mcu::is_resident carries the signal instead.
  bool function_inbound(memory::FunctionId function) const {
    return inbound_.contains(function);
  }
  /// Is the device stage holding an OPEN batch for `function` — a greedy
  /// batch the fabric refused (its load cannot avoid the frames pinned by
  /// committed fabric windows) and the pump will retry — that a new
  /// same-function arrival would still join?  The fleet's residency-affinity router
  /// prefers such a card over a merely-resident one: a request routed here
  /// joins the batch and shares its single decode + load.  Always false
  /// under BatchMode::kNone.
  bool open_batch_for(memory::FunctionId function) const {
    return hold_anchors_.contains(function);
  }
  const std::vector<ServerRequest>& completed() const noexcept {
    return completed_;
  }
  /// Latency percentiles, throughput and queueing totals over the requests
  /// completed so far (in_flight() requests are not included).  When the
  /// server runs as one shard of a CoprocessorFleet, these are the per-card
  /// numbers; CoprocessorFleet::stats() merges them fleet-wide.
  ServerStats stats() const;
  AgileCoprocessor& card() noexcept { return card_; }

  // --- telemetry -----------------------------------------------------------

  /// Open this card's span lanes (pci / engine / fabric / batch) as one
  /// trace process named `label`; `card` (when >= 0) stamps every span's
  /// card arg.  Call before running; the sink must outlive the server.
  /// Without a sink every record site is a single null-pointer branch.
  void attach_trace(telemetry::TraceSink& sink, const std::string& label,
                    std::int64_t card = -1);

  // --- fault injection + recovery ------------------------------------------

  /// Everything the dispatcher needs to retry a pulled-back request
  /// elsewhere: the original payload and the caller's completion hook.
  struct CancelledRequest {
    std::uint64_t id = 0;
    unsigned client = 0;
    memory::FunctionId function = 0;
    Bytes input;
    Completion done;
    sim::SimTime submit_time;
  };

  /// Pull an in-flight request back BEFORE its device commit (the fleet's
  /// timeout watchdog).  Pending pipeline events are cancelled, the inbound
  /// marker and any now-stale batch hold anchor are unwound, and the
  /// payload + completion hook are returned for redispatch.  Returns
  /// nullopt — the request rides to completion here — when it is unknown,
  /// already done, or its batch has committed to the engine/fabric.
  std::optional<CancelledRequest> try_cancel(std::uint64_t id);

  /// Card death: cancel every pending event this server scheduled, wipe all
  /// queue state, and erase the fabric (mcu::Mcu::reset_fabric — recovery
  /// starts cold).  EVERY in-flight request — queued or committed — comes
  /// back as a refugee for the dispatcher to redispatch or fail.  Committed
  /// ones may already have produced device-side work that is now lost, so
  /// fleet-level redispatch is at-least-once, never at-most-once.
  std::vector<CancelledRequest> power_off();

 private:
  struct Pending {
    ServerRequest request;
    Bytes input;
    Completion done;
    /// Device commit happened: the engine/fabric windows are booked and the
    /// request can no longer be cancelled (only card death unwinds it).
    bool committed = false;
    /// The one pending pipeline event carrying this request (submit ->
    /// pci-in -> device_ready); unset while it sits in the device queue or
    /// after commit.
    std::optional<sim::EventId> chain_event;
  };
  /// A committed fabric window: `function` owns the fabric until `end` and
  /// must be pinned against eviction by any load overlapping that window.
  struct FabricCommitment {
    sim::SimTime end;
    memory::FunctionId function;
  };
  void begin_pci_in(std::uint64_t id);
  void device_ready(std::uint64_t id);
  /// When the device could next START a request's engine window: the
  /// engine's free instant — or, with overlap off, the fabric's too.
  /// Committing no earlier than this keeps the ready queue reorderable for
  /// as long as the hardware is genuinely busy.
  sim::SimTime device_available() const noexcept {
    return config_.overlap_reconfig ? engine_free_
                                    : std::max(engine_free_, fabric_free_);
  }
  /// Ensure a pump_device wake-up fires no later than `when`.
  void schedule_pump(sim::SimTime when);
  /// Commit the policy's next pick to the engine + fabric; reschedules
  /// itself at the device's next-start instant while requests are waiting.
  void pump_device();
  /// Queued same-function batch mates of `leader` (the device policy's
  /// pick), leader first, the rest in arrival order, at most kMaxBatch.
  std::vector<std::uint64_t> collect_batch(std::uint64_t leader) const;
  /// Plan the batch's shared engine window (leader decode + load) and its
  /// back-to-back fabric windows, and mutate the MCU accordingly.
  /// Returns false — nothing committed, every member stays queued — when
  /// the fabric is busy and the leader's load cannot avoid the pinned
  /// frames; the pump retries once the fabric frees, and can reorder
  /// around it.  A member whose payload execute_invoke rejects fails alone
  /// (kBadInput); a load the ROM cannot serve fails the whole batch
  /// (kCrcReject for a corrupted bitstream, kBadInput for an unprovisioned
  /// function).
  bool serve_batch(const std::vector<std::uint64_t>& batch);
  void begin_pci_out(std::uint64_t id);
  void complete(std::uint64_t id);
  Pending& pending(std::uint64_t id);
  /// Drop one inbound reference to `function` (its load committed, or the
  /// request left before it could).
  void retire_inbound(memory::FunctionId function);
  /// Fail the whole batch terminally (corrupted bitstream): every member
  /// completes NOW with failed=true and no engine/fabric time charged.
  void fail_batch(const std::vector<std::uint64_t>& batch, FailReason reason);
  /// schedule_at through the server's event ledger, so power_off can cancel
  /// everything this server has in flight without touching other users of
  /// the (possibly shared) scheduler.
  sim::EventId schedule(sim::SimTime when, std::function<void()> action);

  AgileCoprocessor& card_;
  ServerConfig config_;
  std::map<std::uint64_t, Pending> queue_;  ///< in-flight, by request id
  std::vector<std::uint64_t> device_queue_;  ///< ready ids, arrival order
  /// In-flight requests whose load has not yet committed, by function.
  std::map<memory::FunctionId, unsigned> inbound_;
  std::uint64_t next_id_ = 0;
  std::size_t in_flight_ = 0;
  sim::SimTime engine_free_;         ///< config engine busy-until
  sim::SimTime fabric_free_;         ///< fabric busy-until
  std::vector<FabricCommitment> executing_;  ///< fabric windows not yet over
  std::optional<sim::SimTime> pump_wake_;  ///< earliest pending pump event
  /// Functions whose greedy batch the fabric refused, with the instant of
  /// the first refusal: kept across later refusals and pick changes,
  /// retired when the function's batch commits (recorded as a batch-hold
  /// span) or its last queued request is cancelled.  Every entry is an
  /// open batch (open_batch_for) a new same-function arrival would join.
  std::map<memory::FunctionId, sim::SimTime> hold_anchors_;
  std::vector<ServerRequest> completed_;
  /// Ids of every event this server has scheduled and not yet seen fire —
  /// the ledger power_off cancels.
  std::set<sim::EventId> scheduled_;

  // Registry handles — the `server.*` counter block on the card's
  // telemetry::Registry, registered at construction; ServerStats is a
  // snapshot view over them (plus the request records).
  struct Counters {
    telemetry::Counter& submitted;
    telemetry::Counter& cancelled;
    /// Committed device batches; doubles as the dense batch-id allocator
    /// (a batch's id is the counter's value at commit).
    telemetry::Counter& batches;
    telemetry::Counter& coalesced_loads;
    telemetry::Counter& amortized_reconfig;  ///< picoseconds
    telemetry::Gauge& queue_depth;  ///< device queue level + high water
    telemetry::Counter& host_pci;   ///< the card's stage.host-pci total
  };
  Counters counters_;

  // Chrome-trace lanes (telemetry/trace_sink.h); null until attach_trace.
  telemetry::TraceTrack* pci_track_ = nullptr;
  telemetry::TraceTrack* engine_track_ = nullptr;
  telemetry::TraceTrack* fabric_track_ = nullptr;
  telemetry::TraceTrack* batch_track_ = nullptr;
};

}  // namespace aad::core
