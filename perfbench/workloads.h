// The benchmark's workloads: traffic, fault plan and fleet size per name.
//
// Every workload runs the library's default core::FleetConfig; only the
// card count differs.  What defines a workload is its trace (open loop,
// one generator, deterministic in the seed) and its fault plan, so a change
// that flips a library default shows its effect here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/fault.h"
#include "sim/time.h"
#include "workload/multiclient.h"

namespace perfbench {

struct Workload {
  std::string name;
  unsigned cards = 1;
  /// Arrival-to-completion latency limit (sim time) for sim_slo_frac; the
  /// drain after the last arrival must also fit inside it (keep-up check).
  aad::sim::SimTime limit;
  /// Latency statistics cover requests arriving this long after the first
  /// arrival or later: by then every bank function has been loaded and the
  /// start-up transient (cold loads, session set-up) has passed.  Earlier
  /// requests still run and have their outputs checked.
  aad::sim::SimTime warmup;
  /// Every function provisioned on each card (setup_s covers all of them).
  std::vector<std::uint32_t> bank;
  aad::workload::MultiClientTrace trace;  ///< open loop
  aad::sim::FaultPlan faults;
};

/// Workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload's trace and fault plan from `seed`.  Throws
/// std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

}  // namespace perfbench
