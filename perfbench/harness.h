// One benchmark repetition: provision a fleet, replay the workload's trace
// through it under a host timer, then check every output and invariant.
//
// Only the program's own calls are timed: workload::replay submission,
// fleet.run() and one fleet.stats().  Payloads, expected outputs and the
// trace are built before the timer starts; every check runs after it stops.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/bytebuffer.h"
#include "core/fleet.h"
#include "telemetry/trace_sink.h"
#include "workloads.h"

namespace perfbench {

/// Everything a run needs that is built once, outside every timer.
struct Prepared {
  Workload workload;
  std::vector<aad::Bytes> payloads;   ///< replay (ticket) order
  std::vector<aad::Bytes> expected;   ///< KernelSpec::software outputs
  std::vector<aad::Bytes> reference;  ///< reference_modexp (modexp only)
  double gen_s = 0.0;  ///< trace, fault plan and payload generation
};

Prepared prepare(const std::string& workload, std::uint64_t seed);

/// Simulated-time results of one repetition.  Identical for two
/// repetitions of one seed, traced or not.
struct SimMetrics {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t verified = 0;  ///< completed with a correct output
  std::uint64_t measured = 0;  ///< arrived after the warm-up
  std::uint64_t within_limit = 0;  ///< ...and completed within the limit
  double rps = 0.0;            ///< completed per simulated second
  double p50_us = 0.0, p99_us = 0.0, p999_us = 0.0;  ///< after warm-up
  double latency_ms = 0.0;     ///< summed over completed requests
  double drain_ms = 0.0;       ///< last arrival -> last completion
  std::uint64_t events = 0;    ///< fleet.run()'s return value
  std::uint64_t digest = 0;    ///< over (ticket, output, completion time)
  bool operator==(const SimMetrics&) const = default;
};

/// Span totals of a traced repetition (sim milliseconds and counts).
struct SpanTotals {
  double pci_in_ms = 0, decode_ms = 0, load_ms = 0, execute_ms = 0,
         pci_out_ms = 0;
  std::int64_t pci_ps = 0;  ///< pci-in + pci-out, exact
  std::uint64_t load_spans = 0, pci_spans = 0, dispatches = 0, events = 0;
};

struct RepResult {
  double construct_s = 0.0, download_s = 0.0;  ///< set-up, host
  double run_s = 0.0;    ///< the timed region, host
  double stats_s = 0.0;  ///< the one timed fleet.stats() call
  SimMetrics sim;
  aad::core::FleetStats stats;
  /// `mcu.*` registry counters summed over the cards, before the
  /// known-answer requests.
  std::map<std::string, std::uint64_t> mcu;
  SpanTotals spans;  ///< traced repetitions only
  std::vector<std::string> errors;  ///< every failed check
};

/// A provisioned fleet: constructed and every bank function downloaded.
struct Provisioned {
  std::unique_ptr<aad::core::CoprocessorFleet> fleet;
  double construct_s = 0.0, download_s = 0.0;
};

Provisioned provision(const Workload& workload);

/// Replay `prepared` through `fleet` (timed), then check it.  With a sink,
/// the fleet's trace lanes are attached first and the span cross-checks run.
RepResult measure(Provisioned& fleet, const Prepared& prepared,
                  aad::telemetry::TraceSink* sink);

/// Host-time probes of single layers, run after the measured repetitions.
/// The card-level probes use a fresh card that shares nothing with any
/// measured fleet.
struct Probes {
  double software_s = 0.0;  ///< KernelSpec::software over every payload
  double modexp_software_s = 0.0;  ///< ...the modexp part of it
  double load_host_us = 0.0;        ///< one preload() + evict() cycle
  double decode_mb_per_s = 0.0;     ///< codec decompress, the bank's streams
  double netlist_invoke_host_us = 0.0;  ///< invoke_function on a resident
                                        ///< netlist kernel
  double scheduler_ns_per_event = 0.0;  ///< bare sim::Scheduler
};

Probes run_probes(const Prepared& prepared, std::uint64_t events);

}  // namespace perfbench
