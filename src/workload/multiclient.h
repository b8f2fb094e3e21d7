// Multi-client traffic for the event-driven CoprocessorServer.
//
// A MultiClientTrace is per-client request sequences plus arrival timing in
// one of the two classic load-generation disciplines:
//   * open loop   — each client's requests arrive at pre-drawn absolute
//                   offsets (Poisson by default), regardless of how fast the
//                   card serves them: the queue grows under overload;
//   * closed loop — each client keeps at most one request outstanding and
//                   submits the next one `offset` (think time) after the
//                   previous completion: load self-limits to the card.
//
// Generation is pure data (deterministic in the seed); replay.h drives a
// trace through a server.
#pragma once

#include <cstdint>
#include <vector>

#include "common/prng.h"
#include "sim/time.h"
#include "workload/trace.h"

namespace aad::workload {

enum class ArrivalMode {
  kOpenLoop,    ///< offsets are absolute arrival times from trace start
  kClosedLoop,  ///< offsets are think times after the previous completion
};

struct ClientRequest {
  FunctionId function = 0;
  std::size_t payload_blocks = 1;
  /// Open loop: arrival offset from trace start (non-decreasing per client).
  /// Closed loop: think time between previous completion and this submit.
  sim::SimTime offset;
};

struct ClientTrace {
  unsigned client = 0;
  std::vector<ClientRequest> requests;
};

struct MultiClientTrace {
  ArrivalMode mode = ArrivalMode::kClosedLoop;
  std::vector<ClientTrace> clients;

  std::size_t total_requests() const noexcept {
    std::size_t n = 0;
    for (const auto& c : clients) n += c.requests.size();
    return n;
  }
};

struct MultiClientConfig {
  unsigned clients = 4;
  std::size_t requests_per_client = 32;
  std::vector<FunctionId> functions;  ///< the bank every client draws from
  std::uint64_t seed = 1;
  std::size_t payload_blocks = 1;
  ArrivalMode mode = ArrivalMode::kClosedLoop;
  /// Function popularity skew: 0 = uniform, > 0 = Zipf(s) (clients share the
  /// popularity ranking, which is what makes config hits possible at all).
  double zipf_s = 0.0;
  /// Open loop: mean of the exponential inter-arrival time per client.
  sim::SimTime mean_interarrival = sim::SimTime::us(200);
  /// Closed loop: mean of the exponential think time (zero = submit the
  /// next request the instant the previous completes — saturation load).
  sim::SimTime mean_think_time = sim::SimTime::zero();
};

/// Deterministic in `config.seed`; each client gets an independent stream.
MultiClientTrace make_multi_client(const MultiClientConfig& config);

/// Bursty same-function traffic: the workload request batching feeds on.
///
/// Real accelerator traffic is rarely a uniform shuffle — a client that
/// needs a kernel tends to need it many times in a row (a TLS handshake
/// storm hitting RSA, a filter bank streaming FIR blocks).  Each client
/// emits `bursts` bursts; a burst picks ONE function (Zipf-skewed when
/// `zipf_s` > 0, shared popularity ranking across clients) and issues
/// `burst_size` requests for it with short exponential intra-burst gaps,
/// then pauses for a longer exponential inter-burst gap before the next
/// burst.  Arrivals are open-loop absolute offsets, so concurrent bursts
/// from different clients interleave at the card — exactly the arrival
/// pattern where same-function batching pays and an unbatched FIFO device
/// stage thrashes its configuration state.
struct BurstyConfig {
  unsigned clients = 4;
  std::size_t bursts = 8;             ///< bursts per client
  std::size_t burst_size = 8;         ///< requests per burst
  std::vector<FunctionId> functions;  ///< burst-function bank
  std::uint64_t seed = 1;
  std::size_t payload_blocks = 1;
  /// Burst-function popularity skew: 0 = uniform, > 0 = Zipf(s).
  double zipf_s = 0.0;
  /// Mean exponential gap between requests INSIDE a burst (small: the
  /// burst arrives nearly back-to-back).
  sim::SimTime mean_intra_gap = sim::SimTime::us(5);
  /// Mean exponential gap BETWEEN bursts of one client.
  sim::SimTime mean_inter_gap = sim::SimTime::us(400);
};

/// Deterministic in `config.seed`; returns an open-loop MultiClientTrace,
/// so workload::replay drives it through a server or fleet unchanged.
MultiClientTrace make_bursty(const BurstyConfig& config);

/// Incremental-variant traffic: the workload delta reconfiguration feeds on.
///
/// An edit-compile-run loop, an adaptive filter re-tuned between blocks, a
/// kernel recompiled with new constants — each produces a CHAIN of function
/// versions whose bitstreams differ in a handful of frames.  `groups` holds
/// those chains (each inner vector is one chain, adjacent versions nearly
/// identical on the fabric); clients are assigned chains round-robin, start
/// at version 0, and on each request advance to the next version with
/// probability `advance` (wrapping cyclically), otherwise re-invoke the
/// version they are on.  Under full-image reconfiguration every advance is
/// a cold miss; under delta reconfiguration it reloads only the frames the
/// new version actually changed.
struct IncrementalConfig {
  unsigned clients = 4;
  std::size_t requests_per_client = 32;
  /// Version chains: groups[g][v] is version v of chain g.  Every chain
  /// needs at least one version; a one-version chain never misses after
  /// its first load.
  std::vector<std::vector<FunctionId>> groups;
  std::uint64_t seed = 1;
  std::size_t payload_blocks = 1;
  ArrivalMode mode = ArrivalMode::kOpenLoop;
  /// Probability a request moves its client to the chain's next version.
  double advance = 0.5;
  /// Open loop: mean of the exponential inter-arrival time per client.
  sim::SimTime mean_interarrival = sim::SimTime::us(200);
  /// Closed loop: mean of the exponential think time.
  sim::SimTime mean_think_time = sim::SimTime::zero();
};

/// Deterministic in `config.seed`; each client gets an independent stream.
MultiClientTrace make_incremental(const IncrementalConfig& config);

/// Phase-shifting traffic: working sets that drift, which residency
/// affinity alone cannot follow.
///
/// Each client walks a sliding WINDOW over the function bank: within a
/// phase it cycles its window round-robin, and every `requests_per_phase`
/// requests the window SLIDES by `phase_stride` functions.  The functions a
/// phase introduces have never been routed anywhere — residency affinity
/// has no card to prefer and eats a cold miss per new function, loaded on
/// demand.  Clients start at staggered offsets so their working sets
/// overlap only partially, defeating the "one hot card holds everything"
/// degenerate case.  `wander` adds uniform noise draws that break the
/// cycle.
struct PhasedConfig {
  unsigned clients = 4;
  std::size_t phases = 4;              ///< phases per client
  std::size_t requests_per_phase = 24; ///< requests before the window slides
  std::vector<FunctionId> functions;   ///< bank the windows slide over
  std::size_t working_set = 3;         ///< window size (functions per phase)
  std::size_t phase_stride = 2;        ///< window slide between phases
  std::uint64_t seed = 1;
  std::size_t payload_blocks = 1;
  /// Probability a request ignores the cycle and draws uniformly from the
  /// whole bank instead (0 = pure cycle, perfectly predictable).
  double wander = 0.0;
  /// Mean of the exponential inter-arrival time per client (open loop).
  sim::SimTime mean_interarrival = sim::SimTime::us(200);
};

/// Deterministic in `config.seed`; returns an open-loop MultiClientTrace.
MultiClientTrace make_phased(const PhasedConfig& config);

}  // namespace aad::workload
