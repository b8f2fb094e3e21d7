// Device-stage policies of one card's CoprocessorServer: which ready
// request the config engine serves next (DevicePolicy) and whether queued
// same-function requests ride along with it (BatchMode).
//
// The server's device stage is two independently-arbitrated resources — the
// configuration engine (firmware decode + on-demand load) and the fabric
// (RAM staging + execution).  Whenever the engine frees up and requests are
// waiting with their input DMA complete, the device policy picks which one
// is served next.  FIFO is the bit-exact baseline (data-arrival order,
// exactly the pre-split server); the reordering policies trade arrival
// fairness for configuration locality:
//
//   * resident-first — serve a request whose function is already configured
//     before any request that needs a reconfiguration: hits cost only the
//     firmware decode, so letting them jump the queue keeps the fabric fed
//     while the misses' reconfigurations are batched behind them;
//   * shortest-reconfiguration-first — SJF on the card's modeled load cost
//     (Mcu::estimated_load_cost: zero when resident, dirty frames only
//     under delta reconfiguration): minimizes mean engine occupancy ahead
//     of any given request.
//
// Both reordering policies are deliberately simple and can starve a cold
// request under a steady stream of resident traffic (classic SJF
// starvation); they are makespan/throughput policies, not fairness
// policies.
//
// Batching attacks the reconfiguration cost from the other side: under
// BatchMode::kGreedy every queued request for the picked function (up to a
// fixed cap) rides the pick's one firmware decode and one on-demand load,
// then runs back-to-back fabric windows.  Both policies are picked per
// server via ServerConfig and compose with the fleet's dispatch policies
// (core::CoprocessorFleet).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "sim/time.h"

namespace aad::core {

/// How a CoprocessorServer orders its device-ready queue.
enum class DevicePolicy : std::uint8_t {
  kFifo,                    ///< data-arrival order (bit-exact baseline)
  kResidentFirst,           ///< configuration hits jump the queue
  kShortestReconfigFirst,   ///< smallest modeled load cost first
};

const char* to_string(DevicePolicy policy);

/// How a CoprocessorServer coalesces same-function requests.
enum class BatchMode : std::uint8_t {
  kNone,    ///< batches of one — bit-exact with the unbatched server
  kGreedy,  ///< the pick plus every queued same-function request (capped)
};

const char* to_string(BatchMode mode);

/// One ready request, as a reordering policy sees it at pick time, so the
/// policy always decides against the card's current configuration state.
struct DeviceQueueEntry {
  bool resident = false;       ///< configuration currently on the fabric
  /// kShortestReconfigFirst's key: Mcu::estimated_load_cost (zero when
  /// resident).  Left zero under the other policies.
  sim::SimTime reconfig_cost;
};

/// Index into `queue` (never empty, arrival order) of the request `policy`
/// serves next.  Deterministic; ties break to the earliest entry.  FIFO
/// always answers 0, so callers skip building entries for it.
std::size_t pick(DevicePolicy policy, std::span<const DeviceQueueEntry> queue);

}  // namespace aad::core
