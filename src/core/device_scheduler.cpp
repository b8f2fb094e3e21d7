#include "core/device_scheduler.h"

#include "common/error.h"

namespace aad::core {

const char* to_string(DevicePolicy policy) {
  switch (policy) {
    case DevicePolicy::kFifo:
      return "fifo";
    case DevicePolicy::kResidentFirst:
      return "resident-first";
    case DevicePolicy::kShortestReconfigFirst:
      return "shortest-reconfig-first";
  }
  return "unknown";
}

const char* to_string(BatchMode mode) {
  switch (mode) {
    case BatchMode::kNone:
      return "none";
    case BatchMode::kGreedy:
      return "greedy";
  }
  return "unknown";
}

std::size_t pick(DevicePolicy policy, std::span<const DeviceQueueEntry> queue) {
  AAD_CHECK(!queue.empty(), "picking from an empty device queue");
  switch (policy) {
    case DevicePolicy::kFifo:
      return 0;  // the queue is kept in data-arrival order
    case DevicePolicy::kResidentFirst:
      for (std::size_t i = 0; i < queue.size(); ++i)
        if (queue[i].resident) return i;
      return 0;  // all misses: oldest first
    case DevicePolicy::kShortestReconfigFirst: {
      std::size_t best = 0;
      for (std::size_t i = 1; i < queue.size(); ++i)
        if (queue[i].reconfig_cost < queue[best].reconfig_cost) best = i;
      return best;  // strict < keeps ties on the earliest arrival
    }
  }
  AAD_FAIL(ErrorCode::kInvalidArgument, "unknown device policy");
}

}  // namespace aad::core
