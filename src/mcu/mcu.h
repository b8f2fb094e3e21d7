// The PCI-based microcontroller and its mini-OS (paper §2.3, §2.5).
//
// Owns the ROM, the local RAM, the configuration engine, the Free Frame
// List and the Frame Replacement Table; executes the on-demand algorithm:
//
//   "When the host requests the execution of a particular algorithm ... the
//    micro-controller is responsible for configuring the FPGA with that
//    relevant configuration bit-stream if the function is not already
//    present on the FPGA."
//
// ensure_loaded() is that algorithm verbatim: hit check, Free Frame List
// allocation, eviction loop driven by the Frame Replacement Policy, then
// streaming configuration.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "fabric/fabric.h"
#include "mcu/config_engine.h"
#include "mcu/free_frame_list.h"
#include "mcu/replacement.h"
#include "mcu/runtime.h"
#include "memory/ram.h"
#include "memory/rom.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"

namespace aad::mcu {

struct McuConfig {
  sim::Frequency mcu_clock = sim::Frequency::mhz(66);
  unsigned command_overhead_cycles = 400;   ///< firmware per command
  unsigned eviction_overhead_cycles = 120;  ///< table + free-list updates
  AllocationStrategy allocation = AllocationStrategy::kFirstFitContiguous;
  /// When a contiguous allocation fails despite enough total free frames,
  /// compact the resident functions once before resorting to eviction.
  bool defragment_on_pressure = false;
  /// When the configuration engine rejects a load on a CRC mismatch
  /// (corrupted ROM payload), reprogram the payload from the host driver's
  /// pristine copy and retry the load once — the per-function re-fetch
  /// path.  Off: the load fails with kCorruptData and the caller surfaces
  /// the failure (the server fails the request cleanly).
  bool refetch_on_crc_reject = true;
  PolicyKind policy = PolicyKind::kLru;
  std::uint64_t policy_seed = 1;
  compress::CodecId codec = compress::CodecId::kFrameDelta;
  memory::RomTiming rom_timing;
  memory::RamTiming ram_timing;
  ConfigEngineConfig engine;
  std::size_t rom_capacity = 512 * 1024;
  std::size_t ram_capacity = 64 * 1024;
};

struct LoadResult {
  bool hit = false;                 ///< function was already resident
  unsigned frames_configured = 0;
  unsigned evictions = 0;
  sim::SimTime reconfig_time;       ///< zero on hit
};

struct InvokeResult {
  Bytes output;
  LoadResult load;
  std::int64_t exec_cycles = 0;
  sim::SimTime exec_time;
  sim::SimTime io_time;             ///< data-in + data-out staging
  sim::SimTime firmware_time;
  sim::SimTime total;
};

/// Stage 1 of the staged invoke path: firmware command decode plus the
/// on-demand load (§2.5), as if it began at a caller-chosen start time.
struct PreparedInvoke {
  LoadResult load;
  sim::SimTime firmware_time;  ///< command decode
  sim::SimTime time;           ///< firmware + evictions + reconfiguration
};

/// Stage 2: RAM staging in, fabric execution, output collection.
struct ExecutedInvoke {
  Bytes output;
  std::int64_t exec_cycles = 0;
  sim::SimTime exec_time;
  sim::SimTime io_time;  ///< data-in + data-out staging
  sim::SimTime time;     ///< io + exec total
};

/// Snapshot of the device's `mcu.*` registry counters (see
/// telemetry/registry.h — the counters themselves live on the card's
/// telemetry::Registry; this struct is the conventional typed view).
struct McuStats {
  std::uint64_t invocations = 0;
  std::uint64_t config_hits = 0;
  std::uint64_t config_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t frames_configured = 0;
  std::uint64_t frames_skipped = 0;        ///< all skipped port writes
  std::uint64_t frames_skipped_delta = 0;  ///< hash-tracked delta matches
  std::uint64_t allocation_retries = 0;    ///< contiguous-alloc failures
  std::uint64_t defragmentations = 0;
  /// Compressed bytes actually fetched from ROM by loads; under delta
  /// reconfiguration, matched windows' spans are never fetched.
  std::uint64_t compressed_bytes_streamed = 0;
  /// Loads the configuration engine rejected on a CRC mismatch before
  /// programming anything (corrupted bitstreams caught cleanly).
  std::uint64_t crc_rejects = 0;
  /// CRC rejects recovered by reprogramming the ROM payload from the
  /// host's pristine copy (refetch_on_crc_reject).
  std::uint64_t refetches = 0;
  /// Stored functions by the codec they ended up with — under kAuto this
  /// is the record of what the pick chose.
  std::map<compress::CodecId, std::uint64_t> codec_picks;
};

/// What would load_invoke(id) cost right now?  The shared load-cost model:
/// modeled from the record's compressed bytes plus the frames the delta
/// tracker predicts it can skip, through the same pipeline recurrence the
/// configuration engine executes.  Pure query — no simulated time, no
/// state change.
struct LoadEstimate {
  bool known = false;           ///< provisioned in ROM (or resident)
  bool resident = false;        ///< hit: zero cost
  unsigned frames = 0;          ///< footprint
  unsigned frames_matched = 0;  ///< windows predicted to delta-skip
  unsigned evictions = 0;       ///< predicted eviction count
  std::size_t compressed_bytes = 0;
  sim::SimTime time;            ///< modeled load_invoke duration
};

/// Outcome of a mini-OS compaction pass.
struct DefragResult {
  unsigned functions_moved = 0;
  unsigned frames_reconfigured = 0;
  sim::SimTime time;
};

class Mcu {
 public:
  /// `registry` is the card's counter registry; the MCU registers its
  /// `mcu.*` counters and the device-side `stage.*` sim-time totals there
  /// at construction and bumps the handles on the hot path.  Must outlive
  /// the Mcu.
  Mcu(fabric::Fabric& fabric, sim::Scheduler& scheduler,
      telemetry::Registry& registry, const RuntimeRegistry& runtime,
      const McuConfig& config = {});

  // --- provisioning (host -> ROM, via PCI at the core layer) --------------

  /// Compress `bitstream`'s frame payloads with `codec` (or the configured
  /// default) and store stream + record in ROM.  Advances simulated time by
  /// the ROM programming cost.  CodecId::kAuto trial-compresses with every
  /// real codec and keeps the one whose modeled load is cheapest (measured
  /// compressed size through the engine's pipeline recurrence); near-ties
  /// go to the smallest stream, since ROM capacity is the secondary
  /// objective.  The resolved codec lands in the returned record.
  memory::RomRecord store_function(
      memory::FunctionId id, const bitstream::Bitstream& bitstream,
      std::optional<compress::CodecId> codec = std::nullopt);

  // --- the on-demand path --------------------------------------------------

  /// Make `id` resident (§2.5's algorithm).  Advances simulated time.
  LoadResult ensure_loaded(memory::FunctionId id);

  /// Execute `id` on `input`.  Loads on demand, stages data through local
  /// RAM, runs on the fabric, collects the output.  Advances simulated time.
  /// (Synchronous compatibility shim over the staged path below.)
  InvokeResult invoke(memory::FunctionId id, ByteSpan input);

  // --- the staged path (event-driven pipeline) -----------------------------
  // The CoprocessorServer drives invocations as discrete events, so stages
  // of different requests can overlap (request B's PCI transfer during
  // request A's reconfiguration).  These methods mutate device state
  // immediately — the caller has already reserved the device for a window
  // beginning at `start` — but return simulated durations instead of
  // advancing the scheduler.  Calls for the same request must be issued in
  // service order; the configuration-engine stages (decode_invoke +
  // load_invoke) and the fabric stage (execute_invoke) are separable, so the
  // server may stream request B's configuration while request A still owns
  // the fabric — provided every function with an outstanding fabric window
  // is pinned (see pin()) so B's load cannot evict or overwrite its frames.

  /// Firmware command decode — the fixed per-command cost the
  /// microcontroller pays before the on-demand load.  Counts the invocation.
  sim::SimTime decode_invoke();

  /// The on-demand load (§2.5) as of `start`: hit check, allocation,
  /// eviction loop (pinned functions are never chosen as victims), streaming
  /// configuration.  `*elapsed` receives the full duration (zero on a hit).
  LoadResult load_invoke(memory::FunctionId id, sim::SimTime start,
                         sim::SimTime* elapsed);

  /// decode_invoke + load_invoke back-to-back (the serialized device stage);
  /// kept as the composition so the synchronous shim and the no-overlap
  /// server path stay bit-exact with the split primitives.
  PreparedInvoke prepare_invoke(memory::FunctionId id, sim::SimTime start);

  /// Data-in, fabric execution, output collection as of `start`.
  /// Requires `id` resident (load_invoke/prepare_invoke was called).
  ExecutedInvoke execute_invoke(memory::FunctionId id, ByteSpan input,
                                sim::SimTime start);

  // --- pinning (overlapped reconfiguration + batching) ---------------------
  // While the fabric executes function A, the server streams function B's
  // configuration through the engine.  Pinning A for the duration of B's
  // load_invoke keeps A out of the eviction loop, and — because allocation
  // only ever hands out free frames — guarantees B's frame set is disjoint
  // from A's.  Pins are REFERENCE COUNTED: two independent holders (a
  // request batch pinning its function across all of its back-to-back
  // fabric windows, and an overlapped load pinning every executing
  // function for its duration) can pin the same function, and it stays
  // pinned until the last holder unpins.  Pins are a host-driver concept:
  // they cost no simulated time.

  /// Exclude a resident function from eviction.  Each pin() call takes one
  /// reference; the function is evictable again only when every reference
  /// has been unpin()ned.
  void pin(memory::FunctionId id);
  /// Release one pin reference (no-op if not pinned).
  void unpin(memory::FunctionId id);
  bool is_pinned(memory::FunctionId id) const { return pinned_.contains(id); }
  /// Functions with at least one pin reference (not the reference total).
  std::size_t pinned_count() const noexcept { return pinned_.size(); }
  /// Outstanding pin references on `id` (0 when unpinned).
  unsigned pin_count(memory::FunctionId id) const {
    const auto it = pinned_.find(id);
    return it != pinned_.end() ? it->second : 0u;
  }

  /// Could load_invoke(id) complete right now without evicting a pinned
  /// function?  True on a hit; on a miss, checks the limit state in which
  /// every non-pinned resident is evicted — if the allocation strategy
  /// cannot place the function even then (pinned frames fragment the
  /// device), an overlapped load is illegal and the caller must serialize
  /// behind the fabric.  Pure query: no simulated time, no state change.
  bool load_feasible(memory::FunctionId id) const;

  /// The load-cost model (see LoadEstimate).  Resident functions cost
  /// zero; a miss is modeled from its placement prediction — including the
  /// frames the delta tracker would skip there — through the engine's own
  /// pipeline recurrence, so on an eviction-free miss the estimate equals
  /// load_invoke's elapsed time exactly.
  LoadEstimate estimate_load(memory::FunctionId id) const;
  /// Shorthand: estimate_load(id).time.
  sim::SimTime estimated_load_cost(memory::FunctionId id) const {
    return estimate_load(id).time;
  }

  /// Explicitly evict a resident function (host-directed swap-out).
  void evict(memory::FunctionId id);

  /// Compact resident functions toward frame 0 by relocating them
  /// (re-streaming each from ROM — legal because bitstreams are
  /// slot-relative).  Leaves one contiguous free region.  Advances time.
  DefragResult defragment();

  /// Drop all resident functions and erase the fabric (device reset).
  void reset_fabric();

  // --- inspection ----------------------------------------------------------
  // is_resident / resident_count are O(log n) / O(1) map probes with no
  // simulated-time cost: the fleet's residency-affinity dispatch polls them
  // on every routing decision, mirroring a host driver that mirrors the
  // card's resident set from completion records.
  bool is_resident(memory::FunctionId id) const {
    return loaded_.contains(id);
  }
  std::size_t resident_count() const noexcept { return loaded_.size(); }
  std::vector<memory::FunctionId> resident_functions() const;
  /// The frames `id` currently occupies (empty when not resident) — the
  /// frame-set query the overlap legality check and its tests rest on.
  std::vector<fabric::FrameIndex> frames_of(memory::FunctionId id) const;
  const FrameReplacementTable& frame_table() const noexcept { return table_; }
  const FreeFrameList& free_frames() const noexcept { return free_list_; }
  const memory::RomImage& rom() const noexcept { return rom_; }
  memory::RomImage& rom() noexcept { return rom_; }
  /// The configuration engine (read-only): the invariant harness audits
  /// its delta frame-hash tracker against the fabric's actual contents.
  const ConfigEngine& engine() const noexcept { return engine_; }
  const memory::LocalRam& ram() const noexcept { return ram_; }
  /// Snapshot of this device's `mcu.*` registry counters.
  McuStats stats() const;
  ReplacementPolicy& policy() noexcept { return *policy_; }
  const McuConfig& config() const noexcept { return config_; }

 private:
  struct LoadedFunction {
    memory::RomRecord record;
    std::vector<fabric::FrameIndex> frames;
    // Netlist functions: the executable network, rebuilt from the
    // configuration plane on first use after (re)configuration.
    std::unique_ptr<netlist::LutNetwork> network;
    std::unique_ptr<netlist::LutExecutor> executor;
  };

  /// Placement prediction under delta reconfiguration: either the frames
  /// the free list would hand out, or an in-place upgrade — evict one
  /// same-footprint resident whose frames mostly already match and reuse
  /// its exact frame set.  nullopt when only the eviction loop can place
  /// the function.  Shared by load_invoke and estimate_load so the estimator
  /// predicts what the loader then does.
  struct DeltaPlan {
    std::vector<fabric::FrameIndex> frames;
    std::optional<memory::FunctionId> upgrade_victim;
    std::vector<bool> matched;  ///< per-window delta-skip prediction
    unsigned matched_count = 0;
  };
  std::optional<DeltaPlan> plan_placement(
      const memory::RomRecord& record) const;
  std::vector<bool> matched_windows(const memory::RomRecord& record,
                                    std::span<const fabric::FrameIndex> targets,
                                    unsigned* count) const;

  // Duration-returning primitives shared by the synchronous shims and the
  // staged path: mutate state, never touch the scheduler.
  sim::SimTime firmware_cost(unsigned cycles);
  sim::SimTime evict_cost(memory::FunctionId id);
  /// Credit one configuration-engine pass to the frame and stage counters.
  void count_configure(const ConfigureResult& cfg);
  DefragResult defragment_at(sim::SimTime start);

  netlist::LutExecutor& executor_for(LoadedFunction& fn);

  fabric::Fabric& fabric_;
  sim::Scheduler& scheduler_;
  const RuntimeRegistry& runtime_;
  McuConfig config_;

  memory::RomImage rom_;
  memory::LocalRam ram_;
  ConfigEngine engine_;
  FreeFrameList free_list_;
  std::unique_ptr<ReplacementPolicy> policy_;
  FrameReplacementTable table_;
  std::map<memory::FunctionId, LoadedFunction> loaded_;
  /// Pin reference counts; a function present here (count >= 1) is
  /// excluded from eviction.
  std::map<memory::FunctionId, unsigned> pinned_;
  /// Per-window content hashes of every stored function's raw payload —
  /// host-driver metadata (no ROM bytes), matched against the engine's
  /// frame table to predict delta skips before streaming anything.
  std::map<memory::FunctionId, std::vector<std::uint64_t>> window_hashes_;
  /// Host-driver metadata for corruption recovery: the CRC-32 of each
  /// stored function's DECODED image (the engine verifies every load
  /// against it) and a pristine copy of the compressed stream (the
  /// re-fetch path reprograms the ROM from it after a CRC reject).
  std::map<memory::FunctionId, std::uint32_t> raw_crcs_;
  std::map<memory::FunctionId, Bytes> pristine_;
  std::uint32_t raw_crc_of(memory::FunctionId id) const {
    const auto it = raw_crcs_.find(id);
    return it != raw_crcs_.end() ? it->second : 0;
  }

  // Registry handles — the `mcu.*` counter block, registered once at
  // construction; stats() snapshots them back into McuStats.  The `stage.*`
  // handles total simulated time per Figure 1 pipeline stage (picoseconds).
  struct Counters {
    telemetry::Counter& invocations;
    telemetry::Counter& config_hits;
    telemetry::Counter& config_misses;
    telemetry::Counter& evictions;
    telemetry::Counter& frames_configured;
    telemetry::Counter& frames_skipped;
    telemetry::Counter& frames_skipped_delta;
    telemetry::Counter& allocation_retries;
    telemetry::Counter& defragmentations;
    telemetry::Counter& bytes_streamed;
    telemetry::Counter& crc_rejects;
    telemetry::Counter& refetches;
    telemetry::Counter& stage_rom;
    telemetry::Counter& stage_decompress;
    telemetry::Counter& stage_configure;
    telemetry::Counter& stage_data_in;
    telemetry::Counter& stage_execute;
    telemetry::Counter& stage_data_out;
    telemetry::Counter& stage_firmware;
  };
  Counters counters_;
  /// Codec picks keep their map shape (keyed by enum, not a flat name).
  std::map<compress::CodecId, std::uint64_t> codec_picks_;
};

}  // namespace aad::mcu
