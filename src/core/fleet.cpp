#include "core/fleet.h"

#include <cmath>
#include <unordered_map>
#include <utility>

namespace aad::core {

namespace {

/// What a completion hook receives for a request that will never run.
ServerRequest failed_request(std::uint64_t id, unsigned client,
                             memory::FunctionId function,
                             sim::SimTime submit_time, sim::SimTime now,
                             FailReason reason) {
  ServerRequest failed;
  failed.id = id;
  failed.client = client;
  failed.function = function;
  failed.submit_time = submit_time;
  failed.complete_time = now;
  failed.failed = true;
  failed.fail_reason = reason;
  return failed;
}

}  // namespace

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kLeastQueued:
      return "least-queued";
    case DispatchPolicy::kResidencyAffinity:
      return "residency-affinity";
  }
  return "unknown";
}

CoprocessorFleet::CoprocessorFleet(const FleetConfig& config)
    : policy_(config.policy),
      cost_routing_(config.cost_routing),
      faults_(config.faults),
      retry_(config.retry),
      counters_{registry_.counter("fleet.affinity_routed"),
                registry_.counter("fleet.delta_routed"),
                registry_.counter("fleet.affinity_fallback"),
                registry_.counter("fleet.deaths"),
                registry_.counter("fleet.redispatched"),
                registry_.counter("fleet.retries"),
                registry_.counter("fleet.timeouts"),
                registry_.counter("fleet.failed")} {
  AAD_REQUIRE(config.cards >= 1, "a fleet needs at least one card");
  shards_.reserve(config.cards);
  for (unsigned i = 0; i < config.cards; ++i) {
    Shard shard;
    shard.card = std::make_unique<AgileCoprocessor>(config.card, scheduler_);
    shard.server =
        std::make_unique<CoprocessorServer>(*shard.card, config.server);
    shards_.push_back(std::move(shard));
  }
}

void CoprocessorFleet::download(algorithms::KernelId kernel,
                                std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_) shard.card->download(kernel, codec);
}

void CoprocessorFleet::download_bitstream(
    memory::FunctionId id, const bitstream::Bitstream& bitstream,
    std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_)
    shard.card->download_bitstream(id, bitstream, codec);
}

void CoprocessorFleet::download_all(std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_) shard.card->download_all(codec);
}

void CoprocessorFleet::attach_trace(telemetry::TraceSink& sink,
                                    const std::string& label) {
  const std::uint32_t pid = sink.add_process(label);
  fleet_track_ = sink.add_track(pid, "dispatch");
  for (unsigned i = 0; i < card_count(); ++i)
    shards_[i].server->attach_trace(sink,
                                    label + "/card " + std::to_string(i),
                                    static_cast<std::int64_t>(i));
}

std::uint64_t CoprocessorFleet::submit(unsigned client,
                                       algorithms::KernelId kernel, Bytes input,
                                       Completion done) {
  return submit_function_at(now(), client, algorithms::function_id(kernel),
                            std::move(input), std::move(done));
}

std::uint64_t CoprocessorFleet::submit_function(unsigned client,
                                                memory::FunctionId function,
                                                Bytes input, Completion done) {
  return submit_function_at(now(), client, function, std::move(input),
                            std::move(done));
}

std::uint64_t CoprocessorFleet::submit_function_at(sim::SimTime when,
                                                   unsigned client,
                                                   memory::FunctionId function,
                                                   Bytes input,
                                                   Completion done) {
  AAD_REQUIRE(when >= now(), "cannot submit a request in the past");
  // Fault plans are armed on the FIRST submission, so the plan's times are
  // relative to when traffic starts, not to how long provisioning took
  // (which varies with the function set).
  arm_faults();
  const std::uint64_t ticket = next_ticket_++;
  ++undispatched_;
  // The card is chosen when the request ARRIVES, not now: pre-scheduled
  // open-loop arrivals and closed-loop resubmissions alike get routed
  // against the queue depths and residency of their arrival instant.  The
  // ticket opens at arrival too, so a pre-scheduled trace holds its
  // payloads in the event queue, not in tickets_.
  scheduler_.schedule_at(
      when, [this, ticket, client, function, input = std::move(input),
             done = std::move(done)]() mutable {
        TicketState& state = tickets_[ticket];
        state.client = client;
        state.function = function;
        state.input = std::move(input);
        state.done = std::move(done);
        state.submit_time = now();
        dispatch_ticket(ticket);
      });
  return ticket;
}

bool CoprocessorFleet::any_alive() const {
  for (const Shard& shard : shards_)
    if (shard.alive) return true;
  return false;
}

void CoprocessorFleet::arm_faults() {
  if (faults_armed_ || faults_.empty()) return;
  faults_armed_ = true;
  const sim::SimTime base = now();
  for (const sim::CardDeath& death : faults_.deaths) {
    if (death.card >= card_count()) continue;
    scheduler_.schedule_at(base + death.at,
                        [this, card = death.card] { kill_card(card); });
    if (death.recover_at > death.at)
      scheduler_.schedule_at(base + death.recover_at,
                          [this, card = death.card] { revive_card(card); });
  }
  for (const sim::RomCorruption& c : faults_.corruptions) {
    if (c.card >= card_count()) continue;
    scheduler_.schedule_at(base + c.at, [this, c] {
      shards_[c.card].card->mcu().rom().corrupt_payload(c.function, c.seed,
                                                        c.bit_flips);
    });
  }
}

void CoprocessorFleet::dispatch_ticket(std::uint64_t ticket) {
  --undispatched_;
  const auto it = tickets_.find(ticket);
  AAD_CHECK(it != tickets_.end(), "dispatching an unknown ticket");
  TicketState& state = it->second;
  if (!any_alive()) {
    fail_ticket(ticket, FailReason::kCardDeath);
    return;
  }
  const unsigned card = route(state.function);
  Shard& shard = shards_[card];
  ++shard.dispatched;
  if (fleet_track_ != nullptr)
    fleet_track_->instant("dispatch", "dispatch", now(),
                          static_cast<std::int64_t>(ticket), state.client,
                          state.function, card);
  ++state.attempts;
  state.on_card = true;
  state.card = card;
  // The payload moves onto the card; try_cancel/power_off hand it back if
  // the request has to be pulled.  The fleet ALWAYS wraps the completion
  // freshly per dispatch — a refugee's old wrapper is never reused (it
  // would fire the ticket bookkeeping twice).
  state.card_request = shard.server->submit_function_at(
      now(), state.client, state.function, std::move(state.input),
      [this, ticket](const ServerRequest& r) { on_card_complete(ticket, r); });
  state.input = Bytes();
  if (retry_.timeout > sim::SimTime::zero())
    state.timeout_event = scheduler_.schedule_at(
        now() + retry_.timeout, [this, ticket] { on_timeout(ticket); });
}

void CoprocessorFleet::on_card_complete(std::uint64_t ticket,
                                        const ServerRequest& request) {
  const auto it = tickets_.find(ticket);
  AAD_CHECK(it != tickets_.end(), "completion for an unknown ticket");
  const Completion done = std::move(it->second.done);
  if (it->second.timeout_event)
    scheduler_.cancel(*it->second.timeout_event);
  tickets_.erase(it);
  // Card-level outcomes — success or failure (a CRC reject the MCU's
  // re-fetch could not repair) — are terminal: a corrupted ROM payload is
  // per-card persistent state, not a transient worth burning retries on.
  if (done) done(request);
}

void CoprocessorFleet::on_timeout(std::uint64_t ticket) {
  const auto it = tickets_.find(ticket);
  if (it == tickets_.end()) return;  // completed at this same instant
  TicketState& state = it->second;
  state.timeout_event.reset();
  auto cancelled = shards_[state.card].server->try_cancel(state.card_request);
  if (!cancelled) {
    // Committed: the engine/fabric windows are booked and the result will
    // arrive — cancelling now would waste real device work.  Let it ride;
    // only a card death can still unwind it.
    return;
  }
  counters_.timeouts.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "timeout", now(),
                          static_cast<std::int64_t>(ticket), state.client,
                          state.function, state.card);
  state.on_card = false;
  state.input = std::move(cancelled->input);
  if (state.attempts > retry_.max_retries) {
    fail_ticket(ticket, FailReason::kTimeout);
    return;
  }
  counters_.retries.add();
  ++undispatched_;
  const double scale =
      std::pow(retry_.backoff, static_cast<double>(state.attempts - 1));
  const sim::SimTime delay = sim::SimTime::ps(static_cast<std::int64_t>(
      static_cast<double>(retry_.backoff_base.picoseconds()) * scale));
  scheduler_.schedule_at(now() + delay,
                      [this, ticket] { dispatch_ticket(ticket); });
}

void CoprocessorFleet::fail_ticket(std::uint64_t ticket, FailReason reason) {
  const auto it = tickets_.find(ticket);
  AAD_CHECK(it != tickets_.end(), "failing an unknown ticket");
  TicketState state = std::move(it->second);
  tickets_.erase(it);
  if (state.timeout_event) scheduler_.cancel(*state.timeout_event);
  counters_.failed.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "request-failed", now(),
                          static_cast<std::int64_t>(ticket), state.client,
                          state.function);
  if (state.done)
    state.done(failed_request(ticket, state.client, state.function,
                              state.submit_time, now(), reason));
}

void CoprocessorFleet::kill_card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  Shard& shard = shards_[index];
  if (!shard.alive) return;
  shard.alive = false;
  ++shard.deaths;
  shard.death_time = now();
  counters_.deaths.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "card-death", now(), /*request=*/-1,
                          /*client=*/-1, /*function=*/-1, index);
  std::vector<CoprocessorServer::CancelledRequest> refugees =
      shard.server->power_off();
  const bool survivors = any_alive();
  // One pass over the open tickets maps this card's requests back to them.
  std::unordered_map<std::uint64_t, std::uint64_t> ticket_of;
  for (const auto& [ticket, state] : tickets_)
    if (state.on_card && state.card == index)
      ticket_of.emplace(state.card_request, ticket);
  for (auto& refugee : refugees) {
    const auto match = ticket_of.find(refugee.id);
    if (match == ticket_of.end()) {
      // Submitted directly through the exposed per-card server: the fleet
      // has no ticket (and no retry budget) for it — surface the failure
      // through its own hook.
      counters_.failed.add();
      if (refugee.done)
        refugee.done(failed_request(refugee.id, refugee.client,
                                    refugee.function, refugee.submit_time,
                                    now(), FailReason::kCardDeath));
      continue;
    }
    const std::uint64_t ticket = match->second;
    TicketState& state = tickets_.at(ticket);
    if (state.timeout_event) {
      scheduler_.cancel(*state.timeout_event);
      state.timeout_event.reset();
    }
    state.on_card = false;
    state.input = std::move(refugee.input);
    // refugee.done is the fleet's own wrapper from dispatch_ticket —
    // dropped here; redispatch installs a fresh one.
    if (survivors) {
      counters_.redispatched.add();
      ++undispatched_;
      scheduler_.schedule_at(now(),
                          [this, ticket] { dispatch_ticket(ticket); });
    } else {
      fail_ticket(ticket, FailReason::kCardDeath);
    }
  }
}

void CoprocessorFleet::revive_card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  // power_off already erased the fabric; the card rejoins dispatch cold.
  // The ROM — host-programmed flash — survived the outage.
  Shard& shard = shards_[index];
  if (!shard.alive && fleet_track_ != nullptr)
    fleet_track_->span("fault", "dead", shard.death_time, now(),
                       /*request=*/-1, /*client=*/-1, /*function=*/-1, index);
  shard.alive = true;
}

unsigned CoprocessorFleet::least_queued() const {
  // Lowest ALIVE card index among the minima keeps ties deterministic;
  // callers never route to a dead card (dispatch_ticket fails the request
  // up front when nothing is alive, so `found` only misses then).
  unsigned best = 0;
  bool found = false;
  for (unsigned i = 0; i < card_count(); ++i) {
    if (!shards_[i].alive) continue;
    if (!found ||
        shards_[i].server->in_flight() < shards_[best].server->in_flight()) {
      best = i;
      found = true;
    }
  }
  return best;
}

unsigned CoprocessorFleet::choose(memory::FunctionId function,
                                  bool& affinity_hit, bool& delta_hit) const {
  affinity_hit = false;
  delta_hit = false;
  switch (policy_) {
    case DispatchPolicy::kRoundRobin: {
      // First alive card at or after the cursor (all alive: the cursor
      // itself, exactly the fault-free behavior).
      for (unsigned k = 0; k < card_count(); ++k) {
        const unsigned i =
            static_cast<unsigned>((rr_cursor_ + k) % shards_.size());
        if (shards_[i].alive) return i;
      }
      return static_cast<unsigned>(rr_cursor_ % shards_.size());
    }
    case DispatchPolicy::kLeastQueued:
      return least_queued();
    case DispatchPolicy::kResidencyAffinity: {
      // Strongest signal first: a card whose device stage is holding an
      // OPEN batch for this function (a greedy batch the fabric refused and
      // will retry) — a request routed there joins the batch and shares its
      // single decode + load, paying no reconfiguration at all.
      bool found = false;
      unsigned best = 0;
      for (unsigned i = 0; i < card_count(); ++i) {
        if (!shards_[i].alive) continue;
        if (!shards_[i].server->open_batch_for(function)) continue;
        if (!found ||
            shards_[i].server->in_flight() < shards_[best].server->in_flight()) {
          best = i;
          found = true;
        }
      }
      if (found) {
        affinity_hit = true;
        return best;
      }
      // Otherwise, among the cards already holding the configuration — or
      // with an in-flight request about to load it (function_inbound) —
      // take the least loaded (lowest index on ties).  A queued request
      // ahead of us could still evict the function, but
      // residency-at-arrival is the cheap, driver-visible signal —
      // mispredictions just cost one reconfiguration.
      for (unsigned i = 0; i < card_count(); ++i) {
        if (!shards_[i].alive) continue;
        if (!shards_[i].card->mcu().is_resident(function) &&
            !shards_[i].server->function_inbound(function))
          continue;
        if (!found ||
            shards_[i].server->in_flight() < shards_[best].server->in_flight()) {
          best = i;
          found = true;
        }
      }
      if (found) {
        affinity_hit = true;
        return best;
      }
      // Third tier: no card holds the function, but under delta
      // reconfiguration a cold load is not uniformly expensive — a card
      // whose fabric still carries frames matching the function's image
      // (an earlier variant, an evicted copy) reloads only the dirty
      // frames.  Route to the cheapest modeled load among cards matching
      // at least one frame (ties: least in flight, then lowest index).
      // Inert when delta tracking is off: no card ever matches a frame.
      if (cost_routing_) {
        sim::SimTime best_cost;
        for (unsigned i = 0; i < card_count(); ++i) {
          if (!shards_[i].alive) continue;
          const mcu::Mcu& mcu = shards_[i].card->mcu();
          if (!mcu.config().engine.delta_reconfig) continue;
          const mcu::LoadEstimate est = mcu.estimate_load(function);
          if (!est.known || est.frames_matched == 0) continue;
          if (!found || est.time < best_cost ||
              (est.time == best_cost &&
               shards_[i].server->in_flight() <
                   shards_[best].server->in_flight())) {
            best = i;
            best_cost = est.time;
            found = true;
          }
        }
        if (found) {
          delta_hit = true;
          return best;
        }
      }
      return least_queued();
    }
  }
  return 0;
}

unsigned CoprocessorFleet::preview_card(memory::FunctionId function) const {
  bool affinity_hit = false, delta_hit = false;
  return choose(function, affinity_hit, delta_hit);
}

unsigned CoprocessorFleet::route(memory::FunctionId function) {
  bool affinity_hit = false, delta_hit = false;
  const unsigned card = choose(function, affinity_hit, delta_hit);
  if (policy_ == DispatchPolicy::kRoundRobin) {
    ++rr_cursor_;
  } else if (policy_ == DispatchPolicy::kResidencyAffinity) {
    if (affinity_hit)
      counters_.affinity_routed.add();
    else if (delta_hit)
      counters_.delta_routed.add();
    else
      counters_.affinity_fallback.add();
  }
  return card;
}

std::size_t CoprocessorFleet::run() { return scheduler_.run(); }

std::size_t CoprocessorFleet::run_until(sim::SimTime deadline) {
  return scheduler_.run_until(deadline);
}

AgileCoprocessor& CoprocessorFleet::card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].card;
}

CoprocessorServer& CoprocessorFleet::server(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].server;
}

const CoprocessorServer& CoprocessorFleet::server(unsigned index) const {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].server;
}

std::uint64_t CoprocessorFleet::in_flight() const {
  // Sum live counts rather than subtracting completions from next_ticket_:
  // requests submitted directly through a card's server (the servers are
  // exposed) would otherwise underflow the difference.
  std::uint64_t in_flight = undispatched_;
  for (const Shard& shard : shards_) in_flight += shard.server->in_flight();
  return in_flight;
}

FleetStats CoprocessorFleet::stats() const {
  FleetStats stats;
  stats.affinity_routed = counters_.affinity_routed.value();
  stats.delta_routed = counters_.delta_routed.value();
  stats.affinity_fallback = counters_.affinity_fallback.value();
  stats.deaths = counters_.deaths.value();
  stats.redispatched = counters_.redispatched.value();
  stats.retries = counters_.retries.value();
  stats.timeouts = counters_.timeouts.value();
  // Card-level failures are added per shard below.
  stats.failed = counters_.failed.value();
  stats.cards.reserve(shards_.size());

  bool any = false;
  std::uint64_t server_submitted = 0, dispatched = 0;
  sim::SimTime first_submit, last_complete;
  std::vector<sim::SimTime> latencies;
  for (unsigned i = 0; i < card_count(); ++i) {
    const Shard& shard = shards_[i];
    FleetCardStats card;
    card.card = i;
    card.server = shard.server->stats();
    card.dispatched = shard.dispatched;
    card.queue_depth = shard.server->in_flight();
    card.resident = shard.card->mcu().resident_count();
    card.alive = shard.alive;
    card.deaths = shard.deaths;
    for (const ServerRequest& r : shard.server->completed()) {
      if (r.failed) continue;  // no device timeline to attribute
      r.load.hit ? ++card.config_hits : ++card.config_misses;
      if (!any || r.submit_time < first_submit) first_submit = r.submit_time;
      if (!any || r.complete_time > last_complete)
        last_complete = r.complete_time;
      any = true;
      latencies.push_back(r.latency());
    }
    if (card.server.completed > 0)
      card.hit_rate = static_cast<double>(card.config_hits) /
                      static_cast<double>(card.server.completed);
    server_submitted += card.server.submitted;
    dispatched += card.dispatched;
    stats.completed += card.server.completed;
    stats.config_hits += card.config_hits;
    stats.config_misses += card.config_misses;
    stats.total_bus_wait += card.server.total_bus_wait;
    stats.total_device_wait += card.server.total_device_wait;
    stats.total_engine_wait += card.server.total_engine_wait;
    stats.total_fabric_wait += card.server.total_fabric_wait;
    stats.total_hidden_reconfig += card.server.total_hidden_reconfig;
    stats.overlapped_loads += card.server.overlapped_loads;
    stats.batches += card.server.batches;
    stats.coalesced_loads += card.server.coalesced_loads;
    stats.total_amortized_reconfig += card.server.total_amortized_reconfig;
    stats.frames_skipped_delta += card.server.frames_skipped_delta;
    stats.bytes_streamed += card.server.bytes_streamed;
    stats.failed += card.server.failed;
    stats.crc_rejects += card.server.crc_rejects;
    stats.refetches += card.server.refetches;
    for (const auto& [codec, picks] : card.server.codec_picks)
      stats.codec_picks[codec] += picks;
    stats.cards.push_back(std::move(card));
  }
  stats.mean_batch_size = mean_batch_size(stats.batches, stats.coalesced_loads);

  // Fleet tickets plus anything submitted directly through an exposed
  // per-card server (its submitted count minus what we dispatched to it),
  // so completed can never outrun submitted under mixed usage.
  stats.submitted = next_ticket_ + (server_submitted - dispatched);
  if (stats.completed > 0)
    stats.hit_rate = static_cast<double>(stats.config_hits) /
                     static_cast<double>(stats.completed);
  if (any) {
    stats.makespan = last_complete - first_submit;
    if (stats.makespan > sim::SimTime::zero())
      stats.throughput_rps =
          static_cast<double>(stats.completed) / stats.makespan.seconds();
  }
  stats.latency = summarize_latencies(std::move(latencies));
  return stats;
}

}  // namespace aad::core
