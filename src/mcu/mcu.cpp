#include "mcu/mcu.h"

#include <algorithm>

#include "common/crc32.h"

namespace aad::mcu {
namespace {

/// Auto-codec pick: candidates whose modeled load is within this fraction
/// of the fastest compete on compressed size instead.
constexpr double kAutoCodecSlack = 0.05;

}  // namespace

Mcu::Mcu(fabric::Fabric& fabric, sim::Scheduler& scheduler,
         telemetry::Registry& registry, const RuntimeRegistry& runtime,
         const McuConfig& config)
    : fabric_(fabric),
      scheduler_(scheduler),
      runtime_(runtime),
      config_(config),
      rom_(config.rom_capacity),
      ram_(config.ram_capacity),
      engine_(config.engine),
      free_list_(fabric.geometry().frame_count),
      policy_(make_policy(config.policy, config.policy_seed)),
      counters_{registry.counter("mcu.invocations"),
                registry.counter("mcu.config_hits"),
                registry.counter("mcu.config_misses"),
                registry.counter("mcu.evictions"),
                registry.counter("mcu.frames_configured"),
                registry.counter("mcu.frames_skipped"),
                registry.counter("mcu.frames_skipped_delta"),
                registry.counter("mcu.allocation_retries"),
                registry.counter("mcu.defragmentations"),
                registry.counter("mcu.compressed_bytes_streamed"),
                registry.counter("mcu.crc_rejects"),
                registry.counter("mcu.refetches"),
                registry.counter("stage.rom"),
                registry.counter("stage.decompress"),
                registry.counter("stage.configure"),
                registry.counter("stage.data-in"),
                registry.counter("stage.execute"),
                registry.counter("stage.data-out"),
                registry.counter("stage.firmware")} {}

McuStats Mcu::stats() const {
  McuStats s;
  s.invocations = counters_.invocations.value();
  s.config_hits = counters_.config_hits.value();
  s.config_misses = counters_.config_misses.value();
  s.evictions = counters_.evictions.value();
  s.frames_configured = counters_.frames_configured.value();
  s.frames_skipped = counters_.frames_skipped.value();
  s.frames_skipped_delta = counters_.frames_skipped_delta.value();
  s.allocation_retries = counters_.allocation_retries.value();
  s.defragmentations = counters_.defragmentations.value();
  s.compressed_bytes_streamed = counters_.bytes_streamed.value();
  s.crc_rejects = counters_.crc_rejects.value();
  s.refetches = counters_.refetches.value();
  s.codec_picks = codec_picks_;
  return s;
}

sim::SimTime Mcu::firmware_cost(unsigned cycles) {
  const sim::SimTime t = config_.mcu_clock.cycles(cycles);
  counters_.stage_firmware.add_time(t);
  return t;
}

void Mcu::count_configure(const ConfigureResult& cfg) {
  counters_.frames_configured.add(cfg.frames_written);
  counters_.frames_skipped.add(cfg.frames_skipped);
  counters_.frames_skipped_delta.add(cfg.frames_skipped_delta);
  counters_.bytes_streamed.add(cfg.bytes_streamed);
  counters_.stage_rom.add_time(cfg.rom_bound);
  counters_.stage_decompress.add_time(cfg.decompress_bound);
  counters_.stage_configure.add_time(cfg.config_bound);
}

memory::RomRecord Mcu::store_function(memory::FunctionId id,
                                      const bitstream::Bitstream& bs,
                                      std::optional<compress::CodecId> codec) {
  const auto& geometry = fabric_.geometry();
  AAD_REQUIRE(bs.info.geometry == geometry,
              "bitstream geometry does not match this device");
  AAD_REQUIRE(bs.frame_count() <= geometry.frame_count,
              "function larger than the whole device");

  const compress::CodecId requested = codec.value_or(config_.codec);
  const Bytes raw = bitstream::pack_frame_payloads(bs);
  compress::CodecId chosen = requested;
  Bytes compressed;
  if (requested == compress::CodecId::kAuto) {
    // Trial-compress with every real codec, model the cold load each would
    // cost through the engine's pipeline recurrence, and keep the fastest.
    // Near-ties (the config port hides cheap decoders) go to the smallest
    // stream: ROM capacity is the secondary objective.
    const unsigned frames = static_cast<unsigned>(bs.frame_count());
    const sim::SimTime frame_time = fabric_.port().frame_time(geometry);
    double best_ns = 0.0;
    std::vector<std::pair<compress::CodecId, Bytes>> trials;
    std::vector<double> times_ns;
    for (const compress::CodecId cand : compress::all_codec_ids()) {
      Bytes c = compress::make_codec(cand, geometry.frame_bytes())
                    ->compress(raw);
      const sim::SimTime t =
          engine_.estimate_time(c.size(), frames, cand, geometry.frame_bytes(),
                                frame_time, config_.rom_timing);
      times_ns.push_back(t.nanoseconds());
      if (trials.empty() || t.nanoseconds() < best_ns)
        best_ns = t.nanoseconds();
      trials.emplace_back(cand, std::move(c));
    }
    const double cutoff = best_ns * (1.0 + kAutoCodecSlack);
    std::size_t pick = 0;
    bool first = true;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (times_ns[i] > cutoff) continue;
      if (first || trials[i].second.size() < trials[pick].second.size()) {
        pick = i;
        first = false;
      }
    }
    chosen = trials[pick].first;
    compressed = std::move(trials[pick].second);
  } else {
    compressed =
        compress::make_codec(chosen, geometry.frame_bytes())->compress(raw);
  }
  ++codec_picks_[chosen];

  // Per-window fingerprints: the driver metadata delta reconfiguration and
  // the load-cost estimator match against the engine's frame table.
  {
    auto& hashes = window_hashes_[id];
    hashes.clear();
    const std::size_t frame_bytes = geometry.frame_bytes();
    for (std::size_t off = 0; off + frame_bytes <= raw.size();
         off += frame_bytes)
      hashes.push_back(
          window_content_hash(ByteSpan(raw.data() + off, frame_bytes)));
  }

  memory::RomRecord record;
  record.function_id = id;
  record.name = bs.info.name;
  record.kind = bs.info.kind;
  record.codec = chosen;
  record.raw_size = static_cast<std::uint32_t>(raw.size());
  record.frames = static_cast<std::uint16_t>(bs.frame_count());
  record.clb_rows = static_cast<std::uint16_t>(geometry.clb_rows);
  record.input_width = bs.info.input_width;
  record.output_width = bs.info.output_width;
  record.kernel_id = bs.info.kernel_id;

  const memory::RomRecord stored = rom_.store(record, compressed);

  const sim::SimTime program =
      config_.rom_timing.write_time(compressed.size() + memory::kRecordBytes);
  scheduler_.advance(program);
  counters_.stage_rom.add_time(program);

  // Host-driver recovery metadata: the decoded-image CRC every load is
  // verified against, and the pristine stream the re-fetch path restores
  // after a ROM corruption is caught.
  raw_crcs_[id] = Crc32::compute(raw);
  pristine_[id] = std::move(compressed);
  return stored;
}

std::vector<memory::FunctionId> Mcu::resident_functions() const {
  std::vector<memory::FunctionId> out;
  out.reserve(loaded_.size());
  for (const auto& [id, fn] : loaded_) out.push_back(id);
  return out;
}

std::vector<fabric::FrameIndex> Mcu::frames_of(memory::FunctionId id) const {
  const auto it = loaded_.find(id);
  return it != loaded_.end() ? it->second.frames
                             : std::vector<fabric::FrameIndex>{};
}

void Mcu::pin(memory::FunctionId id) {
  AAD_REQUIRE(loaded_.contains(id), "pinning a non-resident function");
  ++pinned_[id];
}

void Mcu::unpin(memory::FunctionId id) {
  const auto it = pinned_.find(id);
  if (it == pinned_.end()) return;
  if (--it->second == 0) pinned_.erase(it);
}

bool Mcu::load_feasible(memory::FunctionId id) const {
  if (loaded_.contains(id)) return true;  // hit: no frames touched
  const auto record = rom_.lookup(id);
  if (!record) return true;  // let load_invoke raise the provisioning error
  // Limit state: every non-pinned resident evicted.  Only the pinned
  // functions' frames stay blocked; can the strategy place `id` then?
  std::vector<bool> blocked(free_list_.frame_count(), false);
  for (const auto& [pinned, refs] : pinned_) {
    const auto it = loaded_.find(pinned);
    if (it == loaded_.end()) continue;
    for (const fabric::FrameIndex frame : it->second.frames)
      blocked[frame] = true;
  }
  return placement_possible(record->frames, config_.allocation, blocked);
}

sim::SimTime Mcu::evict_cost(memory::FunctionId id) {
  const auto it = loaded_.find(id);
  AAD_CHECK(it != loaded_.end(), "evicting a non-resident function");
  free_list_.release(it->second.frames);
  policy_->on_evict(id);
  table_.erase(id);
  loaded_.erase(it);
  counters_.evictions.add();
  return firmware_cost(config_.eviction_overhead_cycles);
}

void Mcu::evict(memory::FunctionId id) {
  AAD_REQUIRE(loaded_.contains(id), "function not resident");
  AAD_REQUIRE(!pinned_.contains(id), "evicting a pinned function");
  scheduler_.advance(evict_cost(id));
}

DefragResult Mcu::defragment() {
  const DefragResult result = defragment_at(scheduler_.now());
  scheduler_.advance(result.time);
  return result;
}

DefragResult Mcu::defragment_at(sim::SimTime start) {
  // Compaction relocates every resident function; a pinned function may be
  // mid-execution on the fabric, so the mini-OS refuses to move it.
  AAD_REQUIRE(pinned_.empty(), "cannot defragment while functions are pinned");
  DefragResult result;
  sim::SimTime t = start;
  counters_.defragmentations.add();

  // Pack resident functions toward frame 0, in ascending order of their
  // current lowest frame, relocating each by re-streaming it from ROM.
  // Processing left-to-right guarantees a function's target region only
  // overlaps frames that are already free or its own old ones.
  std::vector<std::pair<fabric::FrameIndex, memory::FunctionId>> order;
  for (const auto& [id, fn] : loaded_)
    order.emplace_back(fn.frames.front(), id);
  std::sort(order.begin(), order.end());

  fabric::FrameIndex next = 0;
  for (const auto& [first, id] : order) {
    (void)first;
    auto& fn = loaded_.at(id);
    std::vector<fabric::FrameIndex> target(fn.record.frames);
    for (std::size_t i = 0; i < target.size(); ++i)
      target[i] = next + static_cast<fabric::FrameIndex>(i);
    if (target == fn.frames) {  // already packed
      next += fn.record.frames;
      continue;
    }
    free_list_.release(fn.frames);
    free_list_.claim(target);
    const ConfigureResult cfg =
        engine_.configure(rom_, fn.record, target, fabric_, config_.rom_timing,
                          t, raw_crc_of(id));
    t += cfg.total;
    count_configure(cfg);

    fn.frames = target;
    fn.network.reset();
    fn.executor.reset();
    table_.at(id).frames = target;
    ++result.functions_moved;
    result.frames_reconfigured += cfg.frames_written;
    t += firmware_cost(config_.eviction_overhead_cycles);
    next += fn.record.frames;
  }
  result.time = t - start;
  return result;
}

void Mcu::reset_fabric() {
  loaded_.clear();
  table_.clear();
  pinned_.clear();
  free_list_.reset();
  fabric_.erase();
  engine_.reset_tracking();  // the frame table no longer matches the fabric
}

std::vector<bool> Mcu::matched_windows(
    const memory::RomRecord& record,
    std::span<const fabric::FrameIndex> targets, unsigned* count) const {
  std::vector<bool> matched(targets.size(), false);
  if (count) *count = 0;
  if (!config_.engine.delta_reconfig) return matched;
  const auto it = window_hashes_.find(record.function_id);
  if (it == window_hashes_.end() || it->second.size() != targets.size())
    return matched;
  for (std::size_t w = 0; w < targets.size(); ++w) {
    const std::uint64_t resident = engine_.frame_hash(targets[w]);
    if (resident != 0 && resident == it->second[w]) {
      matched[w] = true;
      if (count) ++*count;
    }
  }
  return matched;
}

std::optional<Mcu::DeltaPlan> Mcu::plan_placement(
    const memory::RomRecord& record) const {
  // Candidate A: the frames the free list would hand out.
  const auto free_frames = free_list_.peek(record.frames, config_.allocation);
  unsigned matched_free = 0;
  std::vector<bool> free_mask;
  if (free_frames)
    free_mask = matched_windows(record, *free_frames, &matched_free);

  // Candidate B: in-place upgrade — the same-footprint unpinned resident
  // whose frames match the most windows (lowest id wins ties).
  std::optional<memory::FunctionId> victim;
  std::vector<bool> victim_mask;
  std::vector<fabric::FrameIndex> victim_frames;
  unsigned matched_victim = 0;
  for (const auto& [fid, fn] : loaded_) {
    if (fid == record.function_id) continue;
    if (pinned_.contains(fid)) continue;
    if (fn.record.frames != record.frames) continue;
    unsigned m = 0;
    auto mask = matched_windows(record, fn.frames, &m);
    if (m > matched_victim) {
      victim = fid;
      matched_victim = m;
      victim_mask = std::move(mask);
      victim_frames = fn.frames;
    }
  }

  // Upgrading costs an eviction, so it must both clear a majority of the
  // footprint and beat whatever the free placement would match.
  const bool upgrade = victim.has_value() &&
                       matched_victim * 2 >= record.frames &&
                       (!free_frames || matched_victim > matched_free);
  DeltaPlan plan;
  if (upgrade) {
    plan.frames = std::move(victim_frames);
    plan.upgrade_victim = victim;
    plan.matched = std::move(victim_mask);
    plan.matched_count = matched_victim;
    return plan;
  }
  if (!free_frames) return std::nullopt;  // only the eviction loop remains
  plan.frames = *free_frames;
  plan.matched = std::move(free_mask);
  plan.matched_count = matched_free;
  return plan;
}

LoadEstimate Mcu::estimate_load(memory::FunctionId id) const {
  LoadEstimate est;
  if (const auto it = loaded_.find(id); it != loaded_.end()) {
    est.known = true;
    est.resident = true;
    est.frames = it->second.record.frames;
    return est;
  }
  const auto record = rom_.lookup(id);
  if (!record) return est;
  est.known = true;
  est.frames = record->frames;
  est.compressed_bytes = record->compressed_size;

  std::vector<bool> skip;
  if (config_.engine.delta_reconfig) {
    if (const auto plan = plan_placement(*record)) {
      skip = plan->matched;
      est.frames_matched = plan->matched_count;
      est.evictions = plan->upgrade_victim ? 1 : 0;
    } else {
      est.evictions = 1;  // eviction loop; match prediction unknown
    }
  } else if (!free_list_.peek(record->frames, config_.allocation)) {
    est.evictions = 1;
  }

  const auto& geometry = fabric_.geometry();
  sim::SimTime t = engine_.estimate_time(
      est.compressed_bytes, record->frames, record->codec,
      geometry.frame_bytes(), fabric_.port().frame_time(geometry),
      config_.rom_timing, skip);
  if (est.evictions)
    t += config_.mcu_clock.cycles(config_.eviction_overhead_cycles *
                                  est.evictions);
  t += config_.mcu_clock.cycles(config_.command_overhead_cycles);
  est.time = t;
  return est;
}

LoadResult Mcu::ensure_loaded(memory::FunctionId id) {
  sim::SimTime elapsed;
  const LoadResult result = load_invoke(id, scheduler_.now(), &elapsed);
  scheduler_.advance(elapsed);
  return result;
}

LoadResult Mcu::load_invoke(memory::FunctionId id, sim::SimTime start,
                            sim::SimTime* elapsed) {
  LoadResult result;
  sim::SimTime t = start;
  *elapsed = sim::SimTime::zero();

  if (const auto it = loaded_.find(id); it != loaded_.end()) {
    // Config hit: just refresh the Frame Replacement Table timestamp.
    result.hit = true;
    auto& entry = table_.at(id);
    entry.last_access = t;
    ++entry.access_count;
    policy_->on_access(id, t);
    counters_.config_hits.add();
    return result;
  }

  const auto record = rom_.lookup(id);
  if (!record)
    AAD_FAIL(ErrorCode::kNotFound,
             "function " + std::to_string(id) + " not provisioned in ROM");
  AAD_REQUIRE(record->frames <= fabric_.geometry().frame_count,
              "function larger than the device");
  counters_.config_misses.add();

  // Delta reconfiguration: prefer an in-place upgrade when a resident
  // same-footprint sibling already holds most of this function's frames —
  // evicting it and reusing its exact frame set turns the load into a
  // stream of just the dirty windows.
  std::optional<std::vector<fabric::FrameIndex>> frames;
  if (config_.engine.delta_reconfig) {
    if (auto plan = plan_placement(*record); plan && plan->upgrade_victim) {
      t += evict_cost(*plan->upgrade_victim);
      ++result.evictions;
      free_list_.claim(plan->frames);
      frames = std::move(plan->frames);
    }
  }

  // Allocation / eviction loop (§2.5): "if the Free Frame list is
  // insufficient ... some functions from the FPGA have to be erased".
  bool tried_defrag = false;
  while (!frames) {
    frames = free_list_.allocate(record->frames, config_.allocation);
    if (frames) break;
    counters_.allocation_retries.add();
    // Under pure external fragmentation, one compaction pass can satisfy a
    // contiguous request without evicting anyone.  (Not while anything is
    // pinned: compaction would relocate an executing function's frames.)
    if (!tried_defrag && config_.defragment_on_pressure && pinned_.empty() &&
        free_list_.free_count() >= record->frames) {
      tried_defrag = true;
      t += defragment_at(t).time;
      continue;
    }
    auto resident = resident_functions();
    if (!pinned_.empty())
      std::erase_if(resident, [this](memory::FunctionId fn) {
        return pinned_.contains(fn);
      });
    if (resident.empty())
      AAD_FAIL(ErrorCode::kCapacityExceeded,
               pinned_.empty()
                   ? "cannot place function even on an empty device "
                     "(fragmentation-free allocation impossible)"
                   : "cannot place function: every resident function is "
                     "pinned (caller should have checked load_feasible)");
    t += evict_cost(policy_->choose_victim(resident, table_));
    ++result.evictions;
  }

  // Stream ROM -> decompress -> config port, window by window.  A CRC
  // reject (corrupted ROM payload or decode divergence) leaves the fabric
  // untouched; the driver re-fetches the pristine stream from the host,
  // reprograms the ROM, and retries once before surfacing the failure.
  const sim::SimTime begin = t;
  ConfigureResult cfg;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      cfg = engine_.configure(rom_, *record, *frames, fabric_,
                              config_.rom_timing, t, raw_crc_of(id));
      break;
    } catch (const Error& error) {
      if (error.code() != ErrorCode::kCorruptData) {
        free_list_.release(*frames);
        throw;
      }
      counters_.crc_rejects.add();
      const auto pristine = pristine_.find(id);
      if (!config_.refetch_on_crc_reject || attempt >= 1 ||
          pristine == pristine_.end()) {
        free_list_.release(*frames);
        throw;
      }
      rom_.rewrite_payload(id, pristine->second);
      counters_.refetches.add();
      const sim::SimTime d =
          config_.rom_timing.write_time(pristine->second.size());
      counters_.stage_rom.add_time(d);
      t += d;
    }
  }
  t += cfg.total;
  count_configure(cfg);

  LoadedFunction fn;
  fn.record = *record;
  fn.frames = *frames;
  loaded_.emplace(id, std::move(fn));

  FrameTableEntry entry;
  entry.frames = *frames;
  entry.loaded_at = t;
  entry.last_access = t;
  entry.access_count = 1;
  table_.emplace(id, std::move(entry));

  policy_->on_load(id, t);
  policy_->on_access(id, t);

  t += firmware_cost(config_.command_overhead_cycles);
  result.frames_configured = static_cast<unsigned>(cfg.frames_written);
  result.reconfig_time = t - begin;
  *elapsed = t - start;
  return result;
}

netlist::LutExecutor& Mcu::executor_for(LoadedFunction& fn) {
  if (!fn.executor) {
    fn.network = std::make_unique<netlist::LutNetwork>(fabric_.extract_network(
        fn.frames, fn.record.name, fn.record.input_width,
        fn.record.output_width));
    fn.executor = std::make_unique<netlist::LutExecutor>(*fn.network);
  }
  return *fn.executor;
}

sim::SimTime Mcu::decode_invoke() {
  counters_.invocations.add();
  return firmware_cost(config_.command_overhead_cycles);
}

PreparedInvoke Mcu::prepare_invoke(memory::FunctionId id, sim::SimTime start) {
  PreparedInvoke prep;
  prep.firmware_time = decode_invoke();
  sim::SimTime load_elapsed;
  prep.load = load_invoke(id, start + prep.firmware_time, &load_elapsed);
  prep.time = prep.firmware_time + load_elapsed;
  return prep;
}

ExecutedInvoke Mcu::execute_invoke(memory::FunctionId id, ByteSpan input,
                                   sim::SimTime start) {
  const auto it = loaded_.find(id);
  AAD_CHECK(it != loaded_.end(), "execute_invoke on a non-resident function");
  auto& fn = it->second;
  ExecutedInvoke run;
  sim::SimTime t = start;

  // The stage.* counters are charged only once the whole invocation has
  // succeeded: a payload the kernel rejects (or that overflows local RAM)
  // throws before any fabric time is booked, so the counters keep agreeing
  // with the fabric windows the caller records.

  // Data-input module: host payload is already in local RAM (PCI layer);
  // stage it to the fabric.  The module streams from RAM as it reads.
  ram_.reset_allocation();
  const std::size_t in_off = ram_.allocate(input.size());
  ram_.write(in_off, input);
  const sim::SimTime data_in = config_.ram_timing.access_time(input.size());
  t += data_in;

  // Execute.
  HardwareResult hw;
  if (fn.record.kind == bitstream::FunctionKind::kNetlist) {
    auto& executor = executor_for(fn);
    executor.reset();
    if (runtime_.has_netlist_driver(fn.record.kernel_id)) {
      hw = runtime_.netlist_driver(fn.record.kernel_id)(executor, input);
    } else {
      hw = RuntimeRegistry::run_combinational(
          executor, input, fn.record.input_width, fn.record.output_width);
    }
  } else {
    const BehavioralModel& model = runtime_.behavioral(fn.record.kernel_id);
    hw.output = model.compute(input);
    hw.cycles = model.cycles(input.size());
  }
  run.exec_time = fabric_.execution_time(hw.cycles);
  t += run.exec_time;
  run.exec_cycles = hw.cycles;

  // Output-collection module: stage result through local RAM.
  const std::size_t out_off = ram_.allocate(hw.output.size());
  ram_.write(out_off, hw.output);
  const sim::SimTime data_out =
      config_.ram_timing.access_time(hw.output.size());
  t += data_out;

  counters_.stage_data_in.add_time(data_in);
  counters_.stage_execute.add_time(run.exec_time);
  counters_.stage_data_out.add_time(data_out);
  run.io_time = data_in + data_out;
  run.output = std::move(hw.output);
  run.time = t - start;
  return run;
}

InvokeResult Mcu::invoke(memory::FunctionId id, ByteSpan input) {
  const sim::SimTime start = scheduler_.now();
  const PreparedInvoke prep = prepare_invoke(id, start);
  ExecutedInvoke run = execute_invoke(id, input, start + prep.time);
  scheduler_.advance(prep.time + run.time);

  InvokeResult result;
  result.output = std::move(run.output);
  result.load = prep.load;
  result.exec_cycles = run.exec_cycles;
  result.exec_time = run.exec_time;
  result.io_time = run.io_time;
  result.firmware_time = prep.firmware_time;
  result.total = result.firmware_time + result.load.reconfig_time +
                 result.exec_time + result.io_time;
  return result;
}

}  // namespace aad::mcu
