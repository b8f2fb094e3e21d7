#include "core/server.h"

#include <algorithm>

namespace aad::core {
namespace {

/// Largest number of requests one greedy batch drains: the pick plus up to
/// 15 queued same-function mates.
constexpr std::size_t kMaxBatch = 16;

sim::SimTime percentile(const std::vector<sim::SimTime>& sorted, double q) {
  if (sorted.empty()) return sim::SimTime::zero();
  // Nearest-rank: the smallest value with at least q of the mass below it,
  // sorted[ceil(q*n) - 1].  The +0.999999 turns the truncation into a
  // ceiling for any q*n that is not already (within 1e-6 of) an integer,
  // so e.g. p50 of 10 samples is rank 5 and p99 of 10 samples is rank 10
  // (the max — every percentile above 1 - 1/n collapses to the max).
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(q * n + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Unpins on scope exit, so a throwing load cannot leak pins.
class PinGuard {
 public:
  PinGuard(mcu::Mcu& mcu, std::vector<memory::FunctionId> pins)
      : mcu_(mcu), pins_(std::move(pins)) {
    for (const memory::FunctionId fn : pins_) mcu_.pin(fn);
  }
  ~PinGuard() {
    for (const memory::FunctionId fn : pins_) mcu_.unpin(fn);
  }
  PinGuard(const PinGuard&) = delete;
  PinGuard& operator=(const PinGuard&) = delete;

 private:
  mcu::Mcu& mcu_;
  std::vector<memory::FunctionId> pins_;
};

}  // namespace

LatencySummary summarize_latencies(std::vector<sim::SimTime> latencies) {
  LatencySummary summary{};
  if (latencies.empty()) return summary;
  std::sort(latencies.begin(), latencies.end());
  sim::SimTime sum;
  for (const sim::SimTime t : latencies) sum += t;
  summary.min = latencies.front();
  summary.max = latencies.back();
  summary.mean = sim::SimTime::ps(
      sum.picoseconds() / static_cast<std::int64_t>(latencies.size()));
  summary.p50 = percentile(latencies, 0.50);
  summary.p90 = percentile(latencies, 0.90);
  summary.p99 = percentile(latencies, 0.99);
  return summary;
}

CoprocessorServer::CoprocessorServer(AgileCoprocessor& card,
                                     const ServerConfig& config)
    : card_(card),
      config_(config),
      counters_{card.registry().counter("server.submitted"),
                card.registry().counter("server.cancelled"),
                card.registry().counter("server.batches"),
                card.registry().counter("server.coalesced_loads"),
                card.registry().counter("server.amortized_reconfig_ps"),
                card.registry().gauge("server.device_queue_depth"),
                card.registry().counter("stage.host-pci")} {}

void CoprocessorServer::attach_trace(telemetry::TraceSink& sink,
                                     const std::string& label,
                                     std::int64_t card) {
  const std::uint32_t pid = sink.add_process(label);
  pci_track_ = sink.add_track(pid, "pci", card);
  engine_track_ = sink.add_track(pid, "engine", card);
  fabric_track_ = sink.add_track(pid, "fabric", card);
  batch_track_ = sink.add_track(pid, "batch", card);
}

CoprocessorServer::Pending& CoprocessorServer::pending(std::uint64_t id) {
  const auto it = queue_.find(id);
  AAD_CHECK(it != queue_.end(), "unknown in-flight request id");
  return it->second;
}

std::uint64_t CoprocessorServer::submit(unsigned client,
                                        algorithms::KernelId kernel,
                                        Bytes input, Completion done) {
  return submit_function_at(now(), client, algorithms::function_id(kernel),
                            std::move(input), std::move(done));
}

std::uint64_t CoprocessorServer::submit_function(unsigned client,
                                                 memory::FunctionId function,
                                                 Bytes input, Completion done) {
  return submit_function_at(now(), client, function, std::move(input),
                            std::move(done));
}

std::uint64_t CoprocessorServer::submit_function_at(sim::SimTime when,
                                                    unsigned client,
                                                    memory::FunctionId function,
                                                    Bytes input,
                                                    Completion done) {
  AAD_REQUIRE(when >= now(), "cannot submit a request in the past");
  const std::uint64_t id = next_id_++;
  Pending p;
  p.request.id = id;
  p.request.client = client;
  p.request.function = function;
  p.request.submit_time = when;
  p.input = std::move(input);
  p.done = std::move(done);
  Pending& entry = queue_.emplace(id, std::move(p)).first->second;
  ++inbound_[function];
  ++in_flight_;
  counters_.submitted.add();
  entry.chain_event = schedule(when, [this, id] { begin_pci_in(id); });
  return id;
}

sim::EventId CoprocessorServer::schedule(sim::SimTime when,
                                         std::function<void()> action) {
  // The holder lets the wrapper erase its own ledger entry when it fires;
  // power_off cancels whatever ids remain in the ledger.
  auto holder = std::make_shared<sim::EventId>(0);
  const sim::EventId id = card_.scheduler().schedule_at(
      when, [this, holder, action = std::move(action)] {
        scheduled_.erase(*holder);
        action();
      });
  *holder = id;
  scheduled_.insert(id);
  return id;
}

std::optional<CoprocessorServer::CancelledRequest> CoprocessorServer::try_cancel(
    std::uint64_t id) {
  const auto it = queue_.find(id);
  if (it == queue_.end()) return std::nullopt;  // already completed
  Pending& p = it->second;
  if (p.committed) return std::nullopt;  // engine/fabric windows are booked
  const auto queued = std::find(device_queue_.begin(), device_queue_.end(), id);
  if (queued != device_queue_.end()) {
    device_queue_.erase(queued);
    counters_.queue_depth.set(
        static_cast<std::int64_t>(device_queue_.size()));
  } else {
    // Still riding its submit -> pci-in -> device_ready chain.
    AAD_CHECK(p.chain_event.has_value(),
              "uncommitted request has no pending event");
    card_.scheduler().cancel(*p.chain_event);
    scheduled_.erase(*p.chain_event);
  }
  retire_inbound(p.request.function);
  // If this was the open batch's last queued member, retire the anchor so
  // open_batch_for stops advertising a batch nobody can join.
  if (hold_anchors_.contains(p.request.function)) {
    bool still_queued = false;
    for (const std::uint64_t ready_id : device_queue_)
      if (queue_.at(ready_id).request.function == p.request.function) {
        still_queued = true;
        break;
      }
    if (!still_queued) hold_anchors_.erase(p.request.function);
  }
  CancelledRequest out;
  out.id = id;
  out.client = p.request.client;
  out.function = p.request.function;
  out.input = std::move(p.input);
  out.done = std::move(p.done);
  out.submit_time = p.request.submit_time;
  queue_.erase(it);
  --in_flight_;
  counters_.cancelled.add();
  return out;
}

std::vector<CoprocessorServer::CancelledRequest>
CoprocessorServer::power_off() {
  // Cancel the whole event ledger first: a dead card's pipeline must not
  // fire another event (and the cancelled callbacks' captured payloads are
  // released immediately).
  for (const sim::EventId event : scheduled_) card_.scheduler().cancel(event);
  scheduled_.clear();
  std::vector<CancelledRequest> refugees;
  refugees.reserve(queue_.size());
  for (auto& [id, p] : queue_) {
    CancelledRequest r;
    r.id = id;
    r.client = p.request.client;
    r.function = p.request.function;
    r.input = std::move(p.input);
    r.done = std::move(p.done);
    r.submit_time = p.request.submit_time;
    refugees.push_back(std::move(r));
  }
  counters_.cancelled.add(queue_.size());
  queue_.clear();
  device_queue_.clear();
  counters_.queue_depth.set(0);
  inbound_.clear();
  hold_anchors_.clear();
  executing_.clear();
  pump_wake_.reset();
  engine_free_ = sim::SimTime::zero();
  fabric_free_ = sim::SimTime::zero();
  in_flight_ = 0;
  card_.mcu().reset_fabric();  // recovery starts with a cold fabric
  return refugees;
}

void CoprocessorServer::begin_pci_in(std::uint64_t id) {
  Pending& p = pending(id);
  pci::PciBus& bus = card_.bus();
  // Command setup (4 doorbell registers + status poll) plus the input DMA
  // occupy the bus as one arbitration unit, exactly as the synchronous
  // driver issues them.
  const sim::SimTime duration =
      card_.pci_command_overhead(4) + bus.dma_to_device(p.input.size());
  const pci::BusGrant grant = bus.acquire(now(), duration);
  p.request.pci_in_start = grant.start;
  p.request.pci_in_time = duration;
  p.request.bus_wait += grant.queue_delay;
  counters_.host_pci.add_time(duration);
  if (pci_track_ != nullptr)
    pci_track_->span("pci", "pci-in", grant.start, grant.end, id,
                     p.request.client, p.request.function);
  p.chain_event = schedule(grant.end, [this, id] { device_ready(id); });
}

void CoprocessorServer::device_ready(std::uint64_t id) {
  Pending& p = pending(id);
  p.chain_event.reset();  // from here the device queue carries the request
  p.request.device_ready = now();
  device_queue_.push_back(id);
  counters_.queue_depth.set(static_cast<std::int64_t>(device_queue_.size()));
  pump_device();
}

void CoprocessorServer::schedule_pump(sim::SimTime when) {
  if (pump_wake_ && *pump_wake_ <= when) return;  // already covered
  pump_wake_ = when;
  schedule(when, [this, when] {
    if (pump_wake_ == when) pump_wake_.reset();
    // A superseded (later) wake-up still fires; pump_device just finds the
    // queue empty or the device busy and re-arms as needed.
    pump_device();
  });
}

void CoprocessorServer::pump_device() {
  if (device_queue_.empty()) return;
  if (now() < device_available()) {
    // The device is planned busy; one wake-up at its next-start instant
    // serves the whole queue (each commit reschedules the next).  Waiting
    // until then — rather than committing windows into the future — is
    // what lets the device policy reorder everything still queued.
    schedule_pump(device_available());
    return;
  }

  std::size_t choice = 0;  // FIFO: the queue is already in arrival order
  if (config_.device_policy != DevicePolicy::kFifo) {
    // The policy decides against the card's configuration state right now
    // — residency and load cost at pick time, not at arrival time.
    const mcu::Mcu& mcu = card_.mcu();
    const bool sjf =
        config_.device_policy == DevicePolicy::kShortestReconfigFirst;
    std::vector<DeviceQueueEntry> entries;
    entries.reserve(device_queue_.size());
    for (const std::uint64_t ready_id : device_queue_) {
      const memory::FunctionId fn = pending(ready_id).request.function;
      DeviceQueueEntry entry;
      entry.resident = mcu.is_resident(fn);
      if (sjf && !entry.resident)
        entry.reconfig_cost = mcu.estimated_load_cost(fn);
      entries.push_back(entry);
    }
    choice = pick(config_.device_policy, entries);
  }
  const std::uint64_t leader = device_queue_[choice];
  const memory::FunctionId function = pending(leader).request.function;

  // The device policy chose WHICH function is served next; greedy batching
  // lets every queued same-function request ride along (sharing one decode
  // + load).  kNone serves a batch of one, so it skips the same-function
  // scan on what is every unbatched configuration's hot path.
  const std::vector<std::uint64_t> batch =
      config_.batch == BatchMode::kGreedy
          ? collect_batch(leader)
          : std::vector<std::uint64_t>{leader};
  if (!serve_batch(batch)) {
    // The batch may not take the engine while the fabric is busy (overlap
    // refused).  Every member stays queued — later arrivals can still be
    // reordered ahead of them — and the pump retries once the fabric
    // frees.  Meanwhile open_batch_for advertises the still-forming greedy
    // batch to the fleet router, from the instant of its first refusal.
    if (config_.batch == BatchMode::kGreedy)
      hold_anchors_.try_emplace(function, now());
    schedule_pump(fabric_free_);
    return;
  }
  if (const auto anchor = hold_anchors_.find(function);
      anchor != hold_anchors_.end()) {
    if (batch_track_ != nullptr && anchor->second < now())
      batch_track_->span("batch", "batch-hold", anchor->second, now(),
                         /*request=*/-1, /*client=*/-1, function);
    hold_anchors_.erase(anchor);
  }
  for (const std::uint64_t member : batch) std::erase(device_queue_, member);
  counters_.queue_depth.set(static_cast<std::int64_t>(device_queue_.size()));
  pump_device();  // the commit advanced engine_free_; wake up then
}

std::vector<std::uint64_t> CoprocessorServer::collect_batch(
    std::uint64_t leader) const {
  std::vector<std::uint64_t> batch{leader};
  const memory::FunctionId function = queue_.at(leader).request.function;
  // Leader first (the scheduler's pick), then the other same-function
  // entries in arrival order.  With the built-in device policies the pick
  // IS the earliest same-function entry, so the whole batch is in arrival
  // order.
  for (const std::uint64_t ready_id : device_queue_) {
    if (batch.size() >= kMaxBatch) break;
    if (ready_id == leader) continue;
    if (queue_.at(ready_id).request.function == function)
      batch.push_back(ready_id);
  }
  return batch;
}

bool CoprocessorServer::serve_batch(const std::vector<std::uint64_t>& batch) {
  AAD_CHECK(!batch.empty(), "serving an empty batch");
  Pending& p = pending(batch.front());
  mcu::Mcu& mcu = card_.mcu();
  // The pump only fires once the engine is free, so the engine grant is
  // immediate (or the request defers without committing anything).
  const sim::SimTime engine_start = std::max(now(), engine_free_);

  // Fabric windows that are over by the time the engine starts no longer
  // constrain anything.
  std::erase_if(executing_, [engine_start](const FabricCommitment& c) {
    return c.end <= engine_start;
  });

  // Overlapped reconfiguration: with the fabric still executing, this
  // request's load may stream through the config engine only if it cannot
  // touch any executing function's frames.  Pinning the executing functions
  // keeps them out of the eviction loop, which — allocation only ever
  // handing out free frames — makes the new frame set disjoint from theirs.
  // When even the limit state (everything non-pinned evicted) cannot place
  // the function, defer: the request waits for the fabric like the
  // pre-split server, but uncommitted, so the scheduler can still reorder
  // the queue meanwhile.  (With overlap off the fabric is never busy here:
  // pump_device waits for it before calling serve_batch.)
  std::vector<memory::FunctionId> pins;
  const bool fabric_busy = fabric_free_ > engine_start;
  // The probe must also run when the fabric looks free but a pin is still
  // held: a previous batch's standing pin outlives its last fabric window
  // by one same-timestamp event (the unpin fires AT fabric_free_, and the
  // scheduler orders equal timestamps FIFO, so a device_ready enqueued
  // before that batch committed runs first).  Skipping the probe there
  // would send load_invoke into the eviction loop with the pin active and
  // crash on a device where the pinned frames block placement, instead of
  // deferring one event until the unpin retires the pin.
  if (!mcu.is_resident(p.request.function) &&
      (fabric_busy || mcu.pinned_count() > 0)) {
    for (const FabricCommitment& c : executing_)
      if (std::find(pins.begin(), pins.end(), c.function) == pins.end())
        pins.push_back(c.function);
    PinGuard probe(mcu, pins);
    if (!mcu.load_feasible(p.request.function)) return false;
    // probe unpins; the real pins are re-applied around the load below.
  }
  const sim::SimTime fabric_busy_until = fabric_free_;

  p.request.engine_wait = engine_start - p.request.device_ready;
  p.request.device_start = engine_start;

  p.request.decode_time = mcu.decode_invoke();
  const sim::SimTime load_start = engine_start + p.request.decode_time;
  sim::SimTime load_elapsed;
  {
    PinGuard guard(mcu, std::move(pins));
    try {
      p.request.load = mcu.load_invoke(p.request.function, load_start,
                                       &load_elapsed);
    } catch (const Error& error) {
      // Corrupted bitstream the MCU's re-fetch path could not repair, or a
      // function this card's ROM was never provisioned with: either way the
      // fabric is untouched (decode-before-program), so nothing to unwind
      // on the device — the whole batch surfaces as failed right now.
      if (error.code() == ErrorCode::kCorruptData)
        fail_batch(batch, FailReason::kCrcReject);
      else if (error.code() == ErrorCode::kNotFound)
        fail_batch(batch, FailReason::kBadInput);
      else
        throw;
      return true;  // batch consumed: the pump must drop it from the queue
    }
  }
  // The load has committed: from here on Mcu::is_resident carries the
  // routing signal, so the inbound marker retires (were it kept through
  // PCI-out, an eviction by a later overlapped load could leave the fleet
  // routing on a function this card no longer holds or expects).
  const memory::FunctionId function = p.request.function;
  retire_inbound(function);

  p.request.prepare_time = p.request.decode_time + load_elapsed;
  const sim::SimTime engine_end = engine_start + p.request.prepare_time;
  engine_free_ = engine_end;
  if (engine_track_ != nullptr) {
    engine_track_->span("engine", "decode", engine_start, load_start,
                        p.request.id, p.request.client, function);
    if (load_elapsed > sim::SimTime::zero())
      engine_track_->span("engine", "load", load_start,
                          load_start + load_elapsed, p.request.id,
                          p.request.client, function);
  }

  // The overlap win: load time that ran while another request's fabric
  // execution was still in flight.
  if (fabric_busy_until > load_start && load_elapsed > sim::SimTime::zero())
    p.request.hidden_reconfig =
        std::min(engine_end, fabric_busy_until) - load_start;

  // Every member runs its own fabric window, back to back behind the
  // leader's load: the leader first, then the coalesced mates, which take
  // no engine occupancy at all.
  const std::uint64_t batch_id = counters_.batches.value();
  counters_.batches.add();
  const sim::SimTime leader_prepare = p.request.prepare_time;
  const auto batch_size = static_cast<std::uint32_t>(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t member_id = batch[i];
    Pending& q = pending(member_id);
    AAD_CHECK(q.request.function == function, "mixed-function batch");
    q.request.batch_id = batch_id;
    q.request.batch_size = batch_size;
    if (i > 0) {
      // The member's load "commits" with the leader's: the function is
      // resident (and pinned, below) for its window, so it is a hit with
      // no engine time of its own; Mcu::is_resident carries the routing
      // signal from here on, exactly as for the leader.
      q.request.coalesced_load = true;
      q.request.load.hit = true;
      retire_inbound(function);
      q.request.device_start = engine_start;
      q.request.engine_wait = engine_start - q.request.device_ready;
      counters_.coalesced_loads.add();
      counters_.amortized_reconfig.add_time(leader_prepare);
    }
    const sim::SimTime fabric_start = std::max(engine_end, fabric_free_);
    q.request.fabric_start = fabric_start;
    q.request.fabric_wait = fabric_start - engine_end;
    q.request.device_wait = q.request.engine_wait + q.request.fabric_wait;
    // The input payload stays on the Pending: a card death after commit
    // hands it back as a refugee for redispatch (at-least-once semantics).
    q.committed = true;

    mcu::ExecutedInvoke run;
    try {
      run = mcu.execute_invoke(function, q.input, fabric_start);
    } catch (const Error& error) {
      if (error.code() != ErrorCode::kInvalidArgument &&
          error.code() != ErrorCode::kCapacityExceeded)
        throw;
      // The kernel rejected the payload, or it overflowed local RAM, while
      // being staged: execute_invoke charged no stage time and the fabric
      // window never opened.  This member alone fails, at the instant its
      // window would have started; the rest of the batch runs on.
      q.request.failed = true;
      q.request.fail_reason = FailReason::kBadInput;
      if (fabric_track_ != nullptr)
        fabric_track_->instant("fault", "bad-input", fabric_start, member_id,
                               q.request.client, function);
      schedule(fabric_start, [this, member_id] { complete(member_id); });
      continue;
    }
    q.request.execute_time = run.time;
    q.request.exec_cycles = run.exec_cycles;
    q.request.output = std::move(run.output);
    fabric_free_ = fabric_start + run.time;
    if (fabric_track_ != nullptr)
      fabric_track_->span("fabric", "execute", fabric_start, fabric_free_,
                          member_id, q.request.client, function);
    executing_.push_back({fabric_free_, function});
    schedule(fabric_free_, [this, member_id] { begin_pci_out(member_id); });
  }

  // A real batch keeps one pin reference on its function until the last
  // window retires, so an overlapped load of another function streaming
  // during the batch can never evict it between windows (Mcu pins are
  // refcounted, so this composes with the per-load PinGuards above).
  if (batch.size() > 1) {
    mcu.pin(function);
    schedule(std::max(engine_end, fabric_free_),
             [this, function] { card_.mcu().unpin(function); });
  }
  return true;
}

void CoprocessorServer::retire_inbound(memory::FunctionId function) {
  const auto inbound = inbound_.find(function);
  AAD_CHECK(inbound != inbound_.end(), "inbound accounting out of sync");
  if (--inbound->second == 0) inbound_.erase(inbound);
}

void CoprocessorServer::fail_batch(const std::vector<std::uint64_t>& batch,
                                   FailReason reason) {
  for (const std::uint64_t member : batch) {
    Pending& q = pending(member);
    q.committed = true;  // terminal: a timeout cancel must not race this
    retire_inbound(q.request.function);
    q.request.failed = true;
    q.request.fail_reason = reason;
    if (engine_track_ != nullptr)
      engine_track_->instant("fault", "batch-failed", now(), q.request.id,
                             q.request.client, q.request.function);
    complete(member);
  }
}

void CoprocessorServer::begin_pci_out(std::uint64_t id) {
  Pending& p = pending(id);
  pci::PciBus& bus = card_.bus();
  const sim::SimTime duration =
      bus.dma_from_device(p.request.output.size()) + bus.register_read();
  const pci::BusGrant grant = bus.acquire(now(), duration);
  p.request.pci_out_start = grant.start;
  p.request.pci_out_time = duration;
  p.request.bus_wait += grant.queue_delay;
  counters_.host_pci.add_time(duration);
  if (pci_track_ != nullptr)
    pci_track_->span("pci", "pci-out", grant.start, grant.end, id,
                     p.request.client, p.request.function);
  schedule(grant.end, [this, id] { complete(id); });
}

void CoprocessorServer::complete(std::uint64_t id) {
  const auto it = queue_.find(id);
  AAD_CHECK(it != queue_.end(), "completing an unknown request");
  ServerRequest request = std::move(it->second.request);
  const Completion done = std::move(it->second.done);
  queue_.erase(it);
  --in_flight_;
  request.complete_time = now();
  completed_.push_back(request);
  if (done) done(completed_.back());
}

std::size_t CoprocessorServer::run() { return card_.scheduler().run(); }

std::size_t CoprocessorServer::run_until(sim::SimTime deadline) {
  return card_.scheduler().run_until(deadline);
}

ServerStats CoprocessorServer::stats() const {
  ServerStats stats;
  stats.submitted = counters_.submitted.value();
  stats.cancelled = counters_.cancelled.value();
  stats.batches = counters_.batches.value();
  stats.coalesced_loads = counters_.coalesced_loads.value();
  stats.total_amortized_reconfig = counters_.amortized_reconfig.time();
  stats.mean_batch_size =
      mean_batch_size(stats.batches, stats.coalesced_loads);
  const mcu::McuStats device = card_.mcu().stats();
  stats.frames_skipped_delta = device.frames_skipped_delta;
  stats.bytes_streamed = device.compressed_bytes_streamed;
  stats.codec_picks = device.codec_picks;
  stats.crc_rejects = device.crc_rejects;
  stats.refetches = device.refetches;

  // Latency/throughput/wait statistics cover SUCCESSFUL requests only;
  // failed records are done (their hooks fired) but have no meaningful
  // device timeline.
  sim::SimTime first_submit, last_complete;
  bool any = false;
  std::vector<sim::SimTime> latencies;
  latencies.reserve(completed_.size());
  for (const ServerRequest& r : completed_) {
    if (r.failed) {
      ++stats.failed;
      continue;
    }
    if (!any) {
      any = true;
      first_submit = r.submit_time;
      last_complete = r.complete_time;
    }
    first_submit = std::min(first_submit, r.submit_time);
    last_complete = std::max(last_complete, r.complete_time);
    latencies.push_back(r.latency());
    stats.total_bus_wait += r.bus_wait;
    stats.total_device_wait += r.device_wait;
    stats.total_engine_wait += r.engine_wait;
    stats.total_fabric_wait += r.fabric_wait;
    stats.total_hidden_reconfig += r.hidden_reconfig;
    if (r.hidden_reconfig > sim::SimTime::zero()) ++stats.overlapped_loads;
  }
  stats.completed = completed_.size() - stats.failed;
  if (!any) return stats;
  stats.makespan = last_complete - first_submit;
  if (stats.makespan > sim::SimTime::zero())
    stats.throughput_rps =
        static_cast<double>(stats.completed) / stats.makespan.seconds();
  stats.latency = summarize_latencies(std::move(latencies));
  return stats;
}

}  // namespace aad::core
