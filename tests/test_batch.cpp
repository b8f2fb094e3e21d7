// Tests for same-function request batching (ServerConfig::batch): kNone
// serves every request as a batch of one (bit-exact with the unbatched
// server), greedy drains the same-function queue behind one decode + load,
// the batch's pin reference survives an overlapped load's pin/unpin cycle
// (eviction pressure mid-batch), a single-card fleet with batching is
// bit-exact with a bare CoprocessorServer, and a greedy batch the fabric
// refused stays open for the fleet router to steer same-function arrivals
// into.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/fleet.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

using algorithms::KernelId;

Bytes kernel_input(KernelId id, std::size_t blocks, std::uint64_t seed) {
  return algorithms::spec(id).make_input(blocks, seed);
}

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

workload::MultiClientTrace bursty_trace(std::uint64_t seed) {
  workload::BurstyConfig bc;
  bc.clients = 4;
  bc.bursts = 3;
  bc.burst_size = 4;
  bc.functions = algorithms::function_bank();
  bc.seed = seed;
  bc.payload_blocks = 2;
  bc.zipf_s = 0.5;
  bc.mean_intra_gap = sim::SimTime::us(20);
  bc.mean_inter_gap = sim::SimTime::us(150);
  return workload::make_bursty(bc);
}

TEST(BatchPolicyTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(to_string(BatchMode::kNone), "none");
  EXPECT_STREQ(to_string(BatchMode::kGreedy), "greedy");
}

TEST(BatchPolicyTest, NonePolicyServesEveryRequestAsBatchOfOne) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);  // default config: BatchMode::kNone
  ASSERT_EQ(server.config().batch, BatchMode::kNone);
  workload::replay(server, bursty_trace(11), request_input);
  server.run();

  const auto stats = server.stats();
  ASSERT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.batches, stats.completed);  // one commit per request
  EXPECT_EQ(stats.coalesced_loads, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 1.0);
  EXPECT_EQ(stats.total_amortized_reconfig, sim::SimTime::zero());
  for (const ServerRequest& r : server.completed()) {
    EXPECT_EQ(r.batch_size, 1u);
    EXPECT_FALSE(r.coalesced_load);
  }
}

TEST(BatchPolicyTest, GreedyDrainsSameFunctionQueueBehindOneLoad) {
  // A long COLD blocker owns the config engine (18-frame ModExp load) and
  // then the fabric while four cold SHA-256 requests queue up; greedy
  // drains all four into one batch: one leader paying the decode + load,
  // three coalesced followers running back-to-back fabric windows.
  const Bytes blocker = kernel_input(KernelId::kModExp, 8, 1);
  AgileCoprocessor card;
  card.download(KernelId::kModExp);
  card.download(KernelId::kSha256);
  ServerConfig sc;
  sc.batch = BatchMode::kGreedy;
  CoprocessorServer server(card, sc);
  server.submit(0, KernelId::kModExp, blocker);
  std::vector<Bytes> inputs;
  for (unsigned c = 0; c < 4; ++c) {
    inputs.push_back(kernel_input(KernelId::kSha256, 4, 10 + c));
    server.submit(1 + c, KernelId::kSha256, inputs.back());
  }
  server.run();

  std::vector<const ServerRequest*> batch;
  for (const ServerRequest& r : server.completed())
    if (r.function == algorithms::function_id(KernelId::kSha256))
      batch.push_back(&r);
  ASSERT_EQ(batch.size(), 4u);
  std::sort(batch.begin(), batch.end(),
            [](const ServerRequest* a, const ServerRequest* b) {
              return a->fabric_start < b->fabric_start;
            });

  const ServerRequest* leader = batch.front();
  EXPECT_FALSE(leader->coalesced_load);
  EXPECT_FALSE(leader->load.hit);  // the one real load
  EXPECT_GT(leader->prepare_time, sim::SimTime::zero());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->batch_id, leader->batch_id);
    EXPECT_EQ(batch[i]->batch_size, 4u);
    if (i > 0) {
      EXPECT_TRUE(batch[i]->coalesced_load);
      EXPECT_TRUE(batch[i]->load.hit);  // rode the leader's load
      EXPECT_EQ(batch[i]->decode_time, sim::SimTime::zero());
      EXPECT_EQ(batch[i]->prepare_time, sim::SimTime::zero());
      // Back-to-back fabric windows: no gap behind the predecessor.
      EXPECT_EQ(batch[i]->fabric_start,
                batch[i - 1]->fabric_start + batch[i - 1]->execute_time);
    }
    // Outputs stay bit-exact with the host software baseline.
    EXPECT_EQ(batch[i]->output,
              algorithms::spec(KernelId::kSha256)
                  .software(inputs[batch[i]->client - 1]));
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.coalesced_loads, 3u);
  EXPECT_EQ(stats.total_amortized_reconfig, leader->prepare_time * 3);
}

TEST(BatchPolicyTest, EvictionPressureMidBatchKeepsTheFunctionPinned) {
  // A three-request SHA-256 batch owns the fabric; mid-batch, a cold
  // MatMul load streams through the engine (overlapped reconfiguration)
  // on a full device, forcing the eviction loop.  The overlapped load's
  // own PinGuard pins SHA-256 and releases it when the load commits — and
  // because Mcu pins are refcounted, the BATCH's reference must survive
  // that release, keeping SHA-256 resident until its last window retires.
  AgileCoprocessor card;
  card.download(KernelId::kSha256);   // 10 frames
  card.download(KernelId::kAes128);   // 12 frames
  card.download(KernelId::kFft);      // 16 frames
  card.download(KernelId::kMatMul);   // 14 frames: 38 resident + 14 > 48
  const auto sha = algorithms::function_id(KernelId::kSha256);
  const auto matmul = algorithms::function_id(KernelId::kMatMul);

  ServerConfig sc;
  sc.batch = BatchMode::kGreedy;
  CoprocessorServer server(card, sc);
  // Make AES + FFT resident so MatMul's load has eviction candidates.
  server.submit(0, KernelId::kAes128, kernel_input(KernelId::kAes128, 2, 1));
  server.submit(0, KernelId::kFft, kernel_input(KernelId::kFft, 2, 2));
  server.run();

  // The batch: three long SHA-256 requests (big payloads keep the fabric
  // busy while the MatMul load streams).
  std::vector<Bytes> sha_inputs;
  for (unsigned c = 0; c < 3; ++c) {
    sha_inputs.push_back(kernel_input(KernelId::kSha256, 256, 20 + c));
    server.submit(1 + c, KernelId::kSha256, sha_inputs.back());
  }
  const Bytes mm_input = kernel_input(KernelId::kMatMul, 2, 9);
  server.submit(4, KernelId::kMatMul, mm_input);

  // Step the event loop until MatMul's overlapped load has committed (its
  // PinGuard has pinned and unpinned SHA-256 by then): the batch's own
  // reference must still hold.
  bool observed = false;
  for (int step = 0; step < 10000 && !observed; ++step) {
    server.run_until(server.now() + sim::SimTime::us(20));
    if (card.mcu().is_resident(matmul) && server.in_flight() > 0) {
      EXPECT_TRUE(card.mcu().is_pinned(sha))
          << "batch pin lost before the last window retired";
      EXPECT_TRUE(card.mcu().is_resident(sha));
      observed = true;
    }
  }
  ASSERT_TRUE(observed) << "MatMul load never committed mid-batch";
  server.run();

  // The load had to evict on a full device — and could not touch the
  // pinned batch function.
  ASSERT_EQ(server.completed().size(), 6u);
  for (const ServerRequest& r : server.completed()) {
    if (r.function == matmul) {
      EXPECT_GE(r.load.evictions, 1u);
    }
    if (r.function == sha) {
      EXPECT_EQ(r.output,
                algorithms::spec(KernelId::kSha256)
                    .software(sha_inputs[r.client - 1]));
    }
  }
  EXPECT_TRUE(card.mcu().is_resident(sha));
  // Every reference was released: the batch retired, the guards unwound.
  EXPECT_EQ(card.mcu().pinned_count(), 0u);
}

TEST(BatchPolicyTest, SingleCardFleetWithBatchingIsBitExactWithServer) {
  // FleetConfig::server threads the batch policy through to every shard;
  // a one-card fleet running greedy batching must reproduce the bare
  // server's timings event for event.
  const auto trace = bursty_trace(23);
  ServerConfig sc;
  sc.batch = BatchMode::kGreedy;

  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card, sc);
  workload::replay(server, trace, request_input);
  server.run();

  FleetConfig fc;
  fc.cards = 1;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server = sc;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();

  ASSERT_EQ(fleet.server(0).config().batch, BatchMode::kGreedy);
  const auto& direct = server.completed();
  const auto& sharded = fleet.server(0).completed();
  ASSERT_EQ(direct.size(), sharded.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].client, sharded[i].client);
    EXPECT_EQ(direct[i].function, sharded[i].function);
    EXPECT_EQ(direct[i].output, sharded[i].output);
    EXPECT_EQ(direct[i].submit_time, sharded[i].submit_time);
    EXPECT_EQ(direct[i].complete_time, sharded[i].complete_time);
    EXPECT_EQ(direct[i].batch_id, sharded[i].batch_id);
    EXPECT_EQ(direct[i].batch_size, sharded[i].batch_size);
    EXPECT_EQ(direct[i].coalesced_load, sharded[i].coalesced_load);
  }
  const auto a = server.stats();
  const auto b = fleet.stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.coalesced_loads, b.coalesced_loads);
  EXPECT_EQ(a.total_amortized_reconfig, b.total_amortized_reconfig);
}

TEST(BatchPolicyTest, OpenBatchRoutingSteersSameFunctionToTheHoldingCard) {
  // Card 1 holds SHA-256 warm and idle.  Card 0's fabric is booked by
  // three overlapped loads (a 1024-bit ModExp executing, MatMul and FFT
  // committed behind it: all 48 frames pinned), so a greedy SHA-256 batch
  // there is refused and stays open.  The affinity router must prefer that open
  // batch over card 1's resident copy and shorter queue: the arrival joins
  // the batch and shares its one decode + load.
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server.batch = BatchMode::kGreedy;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto sha = algorithms::function_id(KernelId::kSha256);

  fleet.server(1).submit(0, KernelId::kSha256,
                         kernel_input(KernelId::kSha256, 2, 1));
  fleet.run();
  ASSERT_TRUE(fleet.card(1).mcu().is_resident(sha));

  CoprocessorServer& card0 = fleet.server(0);
  card0.submit(1, KernelId::kModExp, kernel_input(KernelId::kModExp, 4, 2));
  card0.submit(2, KernelId::kMatMul, kernel_input(KernelId::kMatMul, 2, 3));
  card0.submit(3, KernelId::kFft, kernel_input(KernelId::kFft, 6, 4));
  card0.submit(4, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, 5));
  bool open = false;
  for (int step = 0; step < 10000 && !open; ++step) {
    fleet.run_until(fleet.now() + sim::SimTime::us(5));
    open = card0.open_batch_for(sha);
  }
  ASSERT_TRUE(open) << "the fabric never refused the SHA-256 batch";

  // The open batch outranks both the resident tier and least-queued.
  EXPECT_GT(card0.in_flight(), fleet.server(1).in_flight());
  EXPECT_EQ(fleet.preview_card(sha), 0u);
  fleet.submit(5, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, 6));
  fleet.run();

  const auto stats = fleet.stats();
  EXPECT_EQ(stats.completed, 6u);
  EXPECT_EQ(stats.coalesced_loads, 1u);  // the routed request joined
  EXPECT_EQ(stats.cards[0].server.completed, 5u);
  EXPECT_EQ(stats.cards[0].server.coalesced_loads, 1u);
  EXPECT_EQ(stats.cards[1].server.completed, 1u);
  EXPECT_FALSE(card0.open_batch_for(sha));  // retired at commit
}

}  // namespace
}  // namespace aad::core
