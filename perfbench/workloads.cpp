#include "workloads.h"

#include <cmath>
#include <stdexcept>

#include "algorithms/kernels.h"
#include "common/prng.h"

namespace perfbench {

namespace {

using aad::Prng;
using aad::algorithms::KernelId;
using aad::algorithms::function_id;
using aad::sim::SimTime;
namespace wl = aad::workload;

std::vector<std::uint32_t> ids(std::initializer_list<KernelId> kernels) {
  std::vector<std::uint32_t> out;
  for (const KernelId k : kernels) out.push_back(function_id(k));
  return out;
}

/// The eight netlist kernels plus AES-128 and SHA-256: 43 frames, so one
/// card can hold the whole bank.  The four kernels whose service time grows
/// with the payload come first and so take the top Zipf ranks.
std::vector<std::uint32_t> hot_bank() {
  return ids({KernelId::kCrc32, KernelId::kAes128, KernelId::kSha256,
              KernelId::kLfsr32, KernelId::kAdder32, KernelId::kParity32,
              KernelId::kPopcount32, KernelId::kComparator32,
              KernelId::kGray32, KernelId::kMul8});
}

/// The whole catalog except modexp: 17 functions, 106 frames.
std::vector<std::uint32_t> modexp_free_bank() {
  std::vector<std::uint32_t> bank;
  for (const std::uint32_t f : aad::algorithms::function_bank())
    if (f != function_id(KernelId::kModExp)) bank.push_back(f);
  return bank;
}

/// Give every request 1..`max_blocks` payload blocks.  With one fixed size
/// each kernel has one exact service time, latency percentiles sit on those
/// few values, and p50 reads the same for every seed.
void spread_payloads(wl::MultiClientTrace& trace, std::uint64_t seed,
                     std::size_t max_blocks) {
  Prng rng(seed * 0x2545F4914F6CDD1Dull + 3);
  for (auto& ct : trace.clients)
    for (auto& req : ct.requests)
      req.payload_blocks = 1 + rng.next_below(max_blocks);
}

SimTime exponential(Prng& rng, SimTime mean) {
  const double u = 1.0 - rng.next_double();  // (0, 1]
  return SimTime::ps(static_cast<std::int64_t>(
      -std::log(u) * static_cast<double>(mean.picoseconds())));
}

// TLS-style sessions, one client each: an RSA-1024 handshake (4 modexp
// blocks = 1024-bit operands, the kernel's documented width), then a stream
// of AES-128 / SHA-256 records of 1-16 blocks.  Six handshakes keep the
// golden modexp model at ~85% of the host time; 60k records keep the rest
// of the run measurable once modexp is fast.
wl::MultiClientTrace tls_sessions(std::uint64_t seed) {
  constexpr unsigned kSessions = 6;
  constexpr std::size_t kRecords = 10000;
  const SimTime session_gap = SimTime::us(400);
  const SimTime handshake_to_records = SimTime::ms(2);
  const SimTime record_gap = SimTime::us(60);

  Prng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  wl::MultiClientTrace trace;
  trace.mode = wl::ArrivalMode::kOpenLoop;
  // The trace opens with one AES and one SHA request, 1 us apart, from a
  // client of its own.  A function stays on the card it first lands on, so
  // this puts AES on card 0 and SHA on card 1 for every seed.  Without it
  // the placement depends on how the handshakes queue: on some seeds both
  // record kernels share a card and p50 rises from ~16 to ~25 us.
  wl::ClientTrace opener;
  opener.client = kSessions;
  opener.requests.push_back({function_id(KernelId::kAes128), 1, SimTime{}});
  opener.requests.push_back({function_id(KernelId::kSha256), 1, SimTime::us(1)});
  SimTime start = SimTime::us(20);
  for (unsigned s = 0; s < kSessions; ++s) {
    start += exponential(rng, session_gap);
    wl::ClientTrace ct;
    ct.client = s;
    ct.requests.push_back({function_id(KernelId::kModExp), 4, start});
    SimTime t = start + handshake_to_records;
    for (std::size_t r = 0; r < kRecords; ++r) {
      t += exponential(rng, record_gap);
      const KernelId k = rng.next_bool(0.5) ? KernelId::kAes128
                                            : KernelId::kSha256;
      ct.requests.push_back({function_id(k), 1 + rng.next_below(16), t});
    }
    trace.clients.push_back(std::move(ct));
  }
  trace.clients.push_back(std::move(opener));
  return trace;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"tls_mix", "zipf_hot",
                                                 "phased_churn",
                                                 "burst_faults"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "tls_mix") {
    // The six handshakes queue on the one card holding modexp for ~8 ms;
    // the warm-up covers them and the cold loads.
    w.cards = 2;
    w.limit = SimTime::us(200);
    w.warmup = SimTime::ms(15);
    w.bank = ids({KernelId::kModExp, KernelId::kAes128, KernelId::kSha256});
    w.trace = tls_sessions(seed);
  } else if (name == "zipf_hot") {
    // The bank fits on one card.  With the 106-frame bank, residency
    // affinity's cold-start placement can over-pack one card, which then
    // thrashes for the rest of the run (seen on 1 seed in 10 at 200k
    // requests/s): a reconfiguration workload, not a hot one.
    w.cards = 4;
    w.limit = SimTime::us(100);
    w.warmup = SimTime::ms(10);
    w.bank = hot_bank();
    wl::MultiClientConfig c;
    c.clients = 8;
    c.requests_per_client = 10000;
    c.functions = w.bank;
    c.seed = seed;
    c.mode = wl::ArrivalMode::kOpenLoop;
    c.zipf_s = 1.2;
    c.mean_interarrival = SimTime::us(40);
    w.trace = wl::make_multi_client(c);
    spread_payloads(w.trace, seed, 16);
  } else if (name == "phased_churn") {
    // One client: with several, the LRU outcome depends on how their
    // windows interleave, and the hit rate ranged 0.19-0.37 across seeds.
    // A 7-function window that moves on every 12 requests gives ~25% hits.
    // Payloads stay at <= 8 blocks: larger FFT/matmul inputs overflow the
    // card's local RAM.
    w.cards = 1;
    w.limit = SimTime::ms(5);
    w.warmup = SimTime::ms(5);
    w.bank = modexp_free_bank();
    wl::PhasedConfig c;
    c.clients = 1;
    c.phases = 2500;
    c.requests_per_phase = 12;
    c.functions = w.bank;
    c.working_set = 7;
    c.phase_stride = 7;
    c.seed = seed;
    c.wander = 0.05;
    c.mean_interarrival = SimTime::us(600);
    w.trace = wl::make_phased(c);
    spread_payloads(w.trace, seed, 8);
  } else if (name == "burst_faults") {
    // ~500 card deaths a run: short outages, many of them, so the latency
    // tail averages over many recoveries instead of a few large ones.
    w.cards = 4;
    w.limit = SimTime::ms(5);
    w.warmup = SimTime::ms(2);
    w.bank = hot_bank();
    wl::BurstyConfig c;
    c.clients = 8;
    c.bursts = 2000;
    c.burst_size = 8;
    c.functions = w.bank;
    c.seed = seed;
    c.mean_intra_gap = SimTime::us(5);
    c.mean_inter_gap = SimTime::us(600);
    w.trace = wl::make_bursty(c);
    spread_payloads(w.trace, seed, 8);
    SimTime horizon;
    for (const auto& ct : w.trace.clients)
      if (!ct.requests.empty() && ct.requests.back().offset > horizon)
        horizon = ct.requests.back().offset;
    aad::sim::RandomFaultConfig f;
    f.seed = seed * 1000003ull + 29;
    f.cards = w.cards;
    f.horizon = horizon;
    f.death_rate_per_ms = 0.1;
    f.mean_downtime = SimTime::us(100);
    f.corruption_rate_per_ms = 0.02;
    f.functions = w.bank;
    w.faults = aad::sim::make_random_fault_plan(f);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

}  // namespace perfbench
