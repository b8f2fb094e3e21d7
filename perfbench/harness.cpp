#include "harness.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <optional>

#include "algorithms/kernels.h"
#include "compress/codec.h"
#include "core/coprocessor.h"
#include "modexp_ref.h"
#include "sim/scheduler.h"
#include "workload/replay.h"

namespace perfbench {

namespace {

using aad::Bytes;
using aad::algorithms::KernelId;
using aad::algorithms::function_id;
using aad::core::CoprocessorFleet;
using aad::core::ServerRequest;
using aad::sim::SimTime;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

KernelId kernel_of(std::uint32_t function) {
  return static_cast<KernelId>(function);
}

constexpr std::uint32_t kModExp = function_id(KernelId::kModExp);

Bytes unhex(const char* hex) {
  Bytes out;
  for (const char* p = hex; p[0] != '\0' && p[1] != '\0'; p += 2)
    out.push_back(static_cast<aad::Byte>(std::stoi(std::string(p, 2), nullptr, 16)));
  return out;
}

Bytes ascii(const char* text) {
  return Bytes(text, text + std::char_traits<char>::length(text));
}

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// One ticket's view from the submitter's completion hook.
struct Outcome {
  SimTime arrival;
  SimTime complete;
  unsigned fired = 0;
  bool failed = false;
  Bytes output;
};

/// The submission surface workload::replay drives: forwards to the fleet
/// and attaches a completion hook per ticket (replay's open-loop path
/// passes none).
struct Submitter {
  CoprocessorFleet& fleet;
  std::vector<Outcome>& outcomes;
  std::uint64_t next = 0;
  bool dense = true;  ///< fleet tickets matched submission order

  SimTime now() const { return fleet.now(); }
  std::uint64_t submit_function_at(SimTime when, unsigned client,
                                   std::uint32_t function, Bytes input,
                                   const CoprocessorFleet::Completion&) {
    const std::uint64_t index = next++;
    Outcome* outcome = &outcomes.at(index);
    outcome->arrival = when;
    const std::uint64_t ticket = fleet.submit_function_at(
        when, client, function, std::move(input),
        [outcome](const ServerRequest& r) {
          ++outcome->fired;
          outcome->failed = r.failed;
          outcome->complete = r.complete_time;
          outcome->output = r.output;
        });
    dense = dense && ticket == index;
    return ticket;
  }
};

struct BusTotals {
  std::int64_t busy_ps = 0;
  std::uint64_t grants = 0;
};

BusTotals bus_totals(CoprocessorFleet& fleet) {
  BusTotals t;
  for (unsigned i = 0; i < fleet.card_count(); ++i) {
    const auto& s = fleet.card(i).bus().stats();
    t.busy_ps += s.bus_time.picoseconds();
    t.grants += s.grants;
  }
  return t;
}

std::map<std::string, std::uint64_t> mcu_counters(CoprocessorFleet& fleet) {
  std::map<std::string, std::uint64_t> sum;
  for (unsigned i = 0; i < fleet.card_count(); ++i)
    for (const auto& m : fleet.card(i).registry().snapshot())
      if (m.kind == aad::telemetry::MetricKind::kCounter &&
          m.name.rfind("mcu.", 0) == 0)
        sum[m.name] += m.value;
  return sum;
}

double percentile_us(const std::vector<std::int64_t>& sorted_ps, double q) {
  if (sorted_ps.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted_ps.size())));
  return static_cast<double>(sorted_ps[std::max<std::size_t>(rank, 1) - 1]) *
         1e-6;
}

void add_error(RepResult& r, std::string message) {
  r.errors.push_back(std::move(message));
}

SpanTotals span_totals(const aad::telemetry::TraceSink& sink) {
  SpanTotals t;
  std::int64_t ps[5] = {};
  static const char* const kStages[5] = {"pci-in", "decode", "load",
                                         "execute", "pci-out"};
  for (const auto& e : sink.merged()) {
    ++t.events;
    if (!e.is_span()) {
      if (std::string_view(e.name) == "dispatch") ++t.dispatches;
      continue;
    }
    for (int s = 0; s < 5; ++s)
      if (std::string_view(e.name) == kStages[s]) ps[s] += e.dur_ps;
    if (std::string_view(e.name) == "load") ++t.load_spans;
    if (std::string_view(e.category) == "pci") ++t.pci_spans;
  }
  t.pci_ps = ps[0] + ps[4];
  t.pci_in_ms = static_cast<double>(ps[0]) * 1e-9;
  t.decode_ms = static_cast<double>(ps[1]) * 1e-9;
  t.load_ms = static_cast<double>(ps[2]) * 1e-9;
  t.execute_ms = static_cast<double>(ps[3]) * 1e-9;
  t.pci_out_ms = static_cast<double>(ps[4]) * 1e-9;
  return t;
}

/// FIPS-197 AES-128 and FIPS 180 SHA-256 known answers, pushed through the
/// fleet after the measured run.
void known_answers(CoprocessorFleet& fleet, RepResult& r) {
  struct Kat {
    KernelId kernel;
    Bytes input;
    Bytes expect;
  };
  const std::vector<Kat> kats = {
      {KernelId::kAes128,
       unhex("000102030405060708090a0b0c0d0e0f"
             "00112233445566778899aabbccddeeff"),
       unhex("69c4e0d86a7b0430d8cdb78070b4c55a")},
      {KernelId::kSha256, ascii("abc"),
       unhex("ba7816bf8f01cfea414140de5dae2223"
             "b00361a396177a9cb410ff61f20015ad")},
      {KernelId::kSha256,
       ascii("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       unhex("248d6a61d20638b8e5c026930c3e6039"
             "a33ce45964ff2167f6ecedd419db06c1")},
  };
  std::vector<std::optional<Bytes>> got(kats.size());
  std::vector<unsigned> fired(kats.size(), 0);
  for (std::size_t i = 0; i < kats.size(); ++i)
    fleet.submit_function(0, function_id(kats[i].kernel), kats[i].input,
                          [&got, &fired, i](const ServerRequest& rq) {
                            ++fired[i];
                            if (!rq.failed) got[i] = rq.output;
                          });
  fleet.run();
  for (std::size_t i = 0; i < kats.size(); ++i)
    if (fired[i] != 1 || got[i] != kats[i].expect)
      add_error(r, "known-answer vector " + std::to_string(i) + " (" +
                       aad::algorithms::spec(kats[i].kernel).name +
                       ") failed");
}

}  // namespace

Prepared prepare(const std::string& name, std::uint64_t seed) {
  Prepared p;
  aad::algorithms::catalog();  // built once, before anything is timed
  const auto gen_start = Clock::now();
  p.workload = make_workload(name, seed);
  for (const auto& ct : p.workload.trace.clients)
    for (const auto& req : ct.requests)
      p.payloads.push_back(aad::algorithms::bank_input(
          req.function, req.payload_blocks,
          mix(seed * 0x100000001b3ull + p.payloads.size())));
  p.gen_s = seconds_since(gen_start);

  std::size_t k = 0;
  p.expected.resize(p.payloads.size());
  p.reference.resize(p.payloads.size());
  for (const auto& ct : p.workload.trace.clients)
    for (const auto& req : ct.requests) {
      p.expected[k] =
          aad::algorithms::spec(kernel_of(req.function)).software(p.payloads[k]);
      if (req.function == kModExp)
        p.reference[k] = reference_modexp(p.payloads[k]);
      ++k;
    }
  return p;
}

Provisioned provision(const Workload& workload) {
  Provisioned pv;
  aad::core::FleetConfig config;
  config.cards = workload.cards;
  config.faults = workload.faults;
  const auto start = Clock::now();
  pv.fleet = std::make_unique<CoprocessorFleet>(config);
  pv.construct_s = seconds_since(start);
  const auto download_start = Clock::now();
  for (const std::uint32_t f : workload.bank) pv.fleet->download(kernel_of(f));
  pv.download_s = seconds_since(download_start);
  return pv;
}

RepResult measure(Provisioned& pv, const Prepared& p,
                  aad::telemetry::TraceSink* sink) {
  RepResult r;
  r.construct_s = pv.construct_s;
  r.download_s = pv.download_s;
  CoprocessorFleet& fleet = *pv.fleet;
  const std::size_t n = p.payloads.size();
  std::vector<Bytes> inputs = p.payloads;  // consumed by replay
  std::vector<Outcome> outcomes(n);
  if (sink != nullptr) fleet.attach_trace(*sink, p.workload.name);
  const BusTotals bus_before = bus_totals(fleet);
  const auto mcu_before = mcu_counters(fleet);
  Submitter submitter{fleet, outcomes};
  std::size_t cursor = 0;
  const auto make_input = [&](std::uint32_t, std::size_t, std::size_t) {
    return std::move(inputs[cursor++]);
  };

  const SimTime measured_from = fleet.now() + p.workload.warmup;
  const auto start = Clock::now();
  aad::workload::replay(submitter, p.workload.trace, make_input);
  r.sim.events = fleet.run();
  const auto stats_start = Clock::now();
  r.stats = fleet.stats();
  const auto end = Clock::now();
  r.run_s = std::chrono::duration<double>(end - start).count();
  r.stats_s = std::chrono::duration<double>(end - stats_start).count();

  // --- conservation ---------------------------------------------------------
  if (submitter.next != n || !submitter.dense)
    add_error(r, "replay did not submit the trace as dense tickets");
  if (fleet.in_flight() != 0) add_error(r, "requests still in flight");
  if (!fleet.sim_idle()) add_error(r, "scheduler not idle after run()");

  // --- outputs and sim-time metrics -----------------------------------------
  SimMetrics& m = r.sim;
  m.attempted = n;
  std::vector<std::int64_t> latencies;
  latencies.reserve(n);
  SimTime first_arrival = outcomes.empty() ? SimTime{} : outcomes[0].arrival;
  SimTime last_arrival, last_complete;
  std::uint64_t mismatches = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Outcome& o = outcomes[k];
    first_arrival = std::min(first_arrival, o.arrival);
    last_arrival = std::max(last_arrival, o.arrival);
    if (o.arrival >= measured_from) ++m.measured;
    if (o.fired != 1) {
      add_error(r, "ticket " + std::to_string(k) + " completion fired " +
                       std::to_string(o.fired) + " times");
      continue;
    }
    std::uint64_t h = fnv1a(0xcbf29ce484222325ull, &k, sizeof k);
    const std::int64_t done_ps = o.complete.picoseconds();
    h = fnv1a(h, &done_ps, sizeof done_ps);
    h = fnv1a(h, &o.failed, sizeof o.failed);
    h = fnv1a(h, o.output.data(), o.output.size());
    m.digest += mix(h);
    if (o.failed) {
      ++m.failed;
      continue;
    }
    ++m.completed;
    last_complete = std::max(last_complete, o.complete);
    const SimTime latency = o.complete - o.arrival;
    m.latency_ms += latency.milliseconds();
    if (o.arrival >= measured_from) {
      latencies.push_back(latency.picoseconds());
      if (latency <= p.workload.limit) ++m.within_limit;
    }
    const bool ok = o.output == p.expected[k] &&
                    (p.reference[k].empty() || o.output == p.reference[k]);
    if (ok) {
      ++m.verified;
    } else if (++mismatches <= 3) {
      add_error(r, "ticket " + std::to_string(k) + " output mismatch");
    }
  }
  if (mismatches > 3)
    add_error(r, std::to_string(mismatches) + " output mismatches in all");
  if (m.completed + m.failed != m.attempted)
    add_error(r, "attempted != completed + failed");
  if (r.stats.submitted != n || r.stats.completed != m.completed ||
      r.stats.failed != m.failed)
    add_error(r, "FleetStats disagree with the completion hooks");

  std::sort(latencies.begin(), latencies.end());
  m.p50_us = percentile_us(latencies, 0.50);
  m.p99_us = percentile_us(latencies, 0.99);
  m.p999_us = percentile_us(latencies, 0.999);
  const double makespan_s = (last_complete - first_arrival).seconds();
  m.rps = makespan_s > 0 ? static_cast<double>(m.completed) / makespan_s : 0;
  m.drain_ms = (last_complete - last_arrival).milliseconds();
  if (last_complete - last_arrival > p.workload.limit)
    add_error(r, "keep-up: drain after the last arrival exceeds the limit");

  const auto mcu_after = mcu_counters(fleet);
  for (const auto& [name, value] : mcu_after) {
    const auto before = mcu_before.find(name);
    r.mcu[name] = value - (before != mcu_before.end() ? before->second : 0);
  }

  // --- traced run: spans must agree with the counters -----------------------
  if (sink != nullptr) {
    r.spans = span_totals(*sink);
    const BusTotals bus_after = bus_totals(fleet);
    if (r.spans.load_spans != r.mcu["mcu.config_misses"])
      add_error(r, "load spans != mcu.config_misses");
    if (r.spans.pci_spans != bus_after.grants - bus_before.grants)
      add_error(r, "pci spans != bus grants");
    if (r.spans.pci_ps != bus_after.busy_ps - bus_before.busy_ps)
      add_error(r, "pci span time != bus busy time");
    if (r.spans.dispatches !=
        r.stats.submitted + r.stats.redispatched + r.stats.retries)
      add_error(r, "dispatch instants != submitted + redispatched + retries");
  }

  known_answers(fleet, r);
  return r;
}

Probes run_probes(const Prepared& p, std::uint64_t events) {
  Probes probes;

  // Kernel functional models: KernelSpec::software over every payload of
  // the run.  Passes repeat until a second has gone; the median pass counts.
  {
    std::vector<double> total, modexp;
    const auto start = Clock::now();
    do {
      double pass = 0.0, pass_modexp = 0.0;
      std::size_t k = 0;
      for (const auto& ct : p.workload.trace.clients)
        for (const auto& req : ct.requests) {
          const auto t0 = Clock::now();
          const Bytes out = aad::algorithms::spec(kernel_of(req.function))
                                .software(p.payloads[k++]);
          const double dt = seconds_since(t0);
          pass += dt;
          if (req.function == kModExp) pass_modexp += dt;
        }
      total.push_back(pass);
      modexp.push_back(pass_modexp);
    } while (seconds_since(start) < 1.0);
    std::sort(total.begin(), total.end());
    std::sort(modexp.begin(), modexp.end());
    probes.software_s = total[total.size() / 2];
    probes.modexp_software_s = modexp[modexp.size() / 2];
  }

  aad::core::AgileCoprocessor card;
  for (const std::uint32_t f : p.workload.bank) card.download(kernel_of(f));

  // Configuration load path: preload() + evict() over the bank.
  {
    std::uint64_t cycles = 0;
    const auto start = Clock::now();
    do {
      for (const std::uint32_t f : p.workload.bank) {
        card.preload(kernel_of(f));
        card.evict(kernel_of(f));
        ++cycles;
      }
    } while (seconds_since(start) < 0.2);
    probes.load_host_us = seconds_since(start) * 1e6 / static_cast<double>(cycles);
  }

  // Codec decompression of the bank's own ROM streams.
  {
    const std::size_t frame_bytes = card.fabric().geometry().frame_bytes();
    const auto& rom = card.mcu().rom();
    std::uint64_t raw = 0;
    const auto start = Clock::now();
    do {
      for (const auto& record : rom.records()) {
        const Bytes out = aad::compress::make_codec(record.codec, frame_bytes)
                              ->decompress(rom.payload(record));
        raw += out.size();
      }
    } while (seconds_since(start) < 0.2);
    probes.decode_mb_per_s =
        static_cast<double>(raw) / seconds_since(start) / 1e6;
  }

  // Netlist executor: the workload's most requested netlist kernel, or the
  // 32-bit adder when it requests none.
  {
    std::map<std::uint32_t, std::uint64_t> counts;
    for (const auto& ct : p.workload.trace.clients)
      for (const auto& req : ct.requests)
        if (aad::algorithms::spec(kernel_of(req.function)).kind ==
            aad::bitstream::FunctionKind::kNetlist)
          ++counts[req.function];
    std::uint32_t f = function_id(KernelId::kAdder32);
    std::uint64_t best = 0;
    for (const auto& [id, count] : counts) {
      if (count <= best) continue;
      best = count;
      f = id;
    }
    if (!card.mcu().rom().lookup(f)) card.download(kernel_of(f));
    const Bytes input = aad::algorithms::bank_input(f, 1, 7);
    card.preload(kernel_of(f));
    std::uint64_t calls = 0;
    const auto start = Clock::now();
    do {
      card.invoke_function(f, input);
      ++calls;
    } while (seconds_since(start) < 0.1);
    probes.netlist_invoke_host_us =
        seconds_since(start) * 1e6 / static_cast<double>(calls);
  }

  // Event engine alone: as many events as the measured run, 64 concurrent
  // self-rescheduling chains with pseudo-random delays.
  {
    aad::sim::Scheduler scheduler;
    std::uint64_t remaining = std::max<std::uint64_t>(events, 1);
    std::uint64_t state = 1;
    std::function<void()> step = [&] {
      if (remaining == 0) return;
      --remaining;
      state = mix(state);
      scheduler.schedule_after(SimTime::ns(static_cast<double>(state % 4096)),
                               step);
    };
    for (int c = 0; c < 64; ++c) scheduler.schedule_after(SimTime::zero(), step);
    const auto start = Clock::now();
    const std::size_t ran = scheduler.run();
    probes.scheduler_ns_per_event =
        seconds_since(start) * 1e9 / static_cast<double>(std::max<std::size_t>(ran, 1));
  }
  return probes;
}

}  // namespace perfbench
