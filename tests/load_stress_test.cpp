// Real-thread hammering of the lock-free admission structures: the Vyukov
// MPMC ring, the sharded queue, the atomic token bucket, and the gateway's
// never-drop backpressure path. These run under tsan in CI (preset filter
// QrmConcurrency|Load) and carry the `stress` ctest label.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/sched/admission.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "ledger_audit.hpp"

namespace hpcqc::sched {
namespace {

TEST(QrmConcurrency, MpmcRingCapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(MpmcRing<std::uint64_t>(1).capacity(), 1u);
  EXPECT_EQ(MpmcRing<std::uint64_t>(5).capacity(), 8u);
  EXPECT_EQ(MpmcRing<std::uint64_t>(1024).capacity(), 1024u);
}

TEST(QrmConcurrency, MpmcRingRejectsWhenFullAndRecovers) {
  MpmcRing<std::uint64_t> ring(4);
  for (std::uint64_t i = 0; i < ring.capacity(); ++i)
    ASSERT_TRUE(ring.try_push(std::uint64_t{i}));
  std::uint64_t overflow = 99;
  EXPECT_FALSE(ring.try_push(std::move(overflow)));
  std::uint64_t out = 0;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0u);  // FIFO
  EXPECT_TRUE(ring.try_push(std::uint64_t{100}));
}

TEST(QrmConcurrency, MpmcRingDeliversEveryItemExactlyOnceAcrossThreads) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 4;
  constexpr std::uint64_t kPerProducer = 20000;
  MpmcRing<std::uint64_t> ring(1024);
  std::atomic<std::uint64_t> popped_sum{0};
  std::atomic<std::uint64_t> popped_count{0};

  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        std::uint64_t value = p * kPerProducer + i + 1;
        while (!ring.try_push(std::move(value))) cpu_relax();
      }
    });
  }
  for (std::size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t value = 0;
      while (popped_count.load(std::memory_order_relaxed) <
             kProducers * kPerProducer) {
        if (ring.try_pop(value)) {
          popped_sum.fetch_add(value, std::memory_order_relaxed);
          popped_count.fetch_add(1, std::memory_order_relaxed);
        } else {
          cpu_relax();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const std::uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(popped_count.load(), n);
  EXPECT_EQ(popped_sum.load(), n * (n + 1) / 2);  // each value exactly once
  std::uint64_t leftover = 0;
  EXPECT_FALSE(ring.try_pop(leftover));
}

TEST(QrmConcurrency, ShardedQueueConservesEveryTicketAcrossThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5000;
  ShardedAdmissionQueue queue(8, 512);
  std::atomic<bool> done{false};
  std::vector<StampedJob> drained;

  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        StampedJob item;
        item.ticket = t * kPerThread + i;
        while (!queue.try_push(std::move(item))) cpu_relax();
      }
    });
  }
  // The scheduler-thread role: drain concurrently with production.
  std::thread drainer([&] {
    while (!done.load(std::memory_order_acquire)) queue.drain(drained);
    queue.drain(drained);
  });
  for (std::thread& producer : producers) producer.join();
  done.store(true, std::memory_order_release);
  drainer.join();

  ASSERT_EQ(drained.size(), kThreads * kPerThread);
  EXPECT_EQ(queue.pushed(), queue.popped());
  std::set<std::uint64_t> tickets;
  for (const StampedJob& item : drained) tickets.insert(item.ticket);
  EXPECT_EQ(tickets.size(), drained.size());  // no duplicates, no losses
  EXPECT_EQ(queue.depth_estimate(), 0u);
}

TEST(QrmConcurrency, AtomicTokenBucketNeverOvercommits) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kAttempts = 10000;
  AtomicTokenBucket bucket(/*rate_per_hour=*/0.0, /*burst=*/1000.0);
  std::atomic<std::uint64_t> taken{0};

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (std::size_t i = 0; i < kAttempts; ++i)
        if (bucket.try_take()) taken.fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::thread& thread : threads) thread.join();

  // 80k concurrent attempts on a 1000-token bucket with no refill: exactly
  // the burst is granted, never a token more.
  EXPECT_EQ(taken.load(), 1000u);
  EXPECT_LT(bucket.tokens(), 1.0);

  // Refill is clamped to the burst depth.
  bucket.refill(hours(1000.0));
  EXPECT_EQ(bucket.tokens(), 0.0);  // rate 0: nothing accrues
  AtomicTokenBucket metered(/*rate_per_hour=*/3600.0, /*burst=*/10.0);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(metered.try_take());
  EXPECT_FALSE(metered.try_take());
  metered.refill(seconds(2.0));  // 1 token/s
  EXPECT_TRUE(metered.try_take());
  EXPECT_TRUE(metered.try_take());
  EXPECT_FALSE(metered.try_take());
}

TEST(QrmConcurrency, GatewayBackpressureNeverDropsAnOffer) {
  Rng rng(41);
  device::DeviceModel device = device::make_iqm20(rng);
  Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.admission.queue_capacity = 4096;
  config.admission.burst = 4096.0;
  config.admission.normal_rate_per_hour = 1.0e9;
  Qrm qrm(device, config, rng);

  // A deliberately tiny gateway: one 16-slot shard against 2000 offers, so
  // most of them bounce into the locked overflow queue.
  AdmissionGateway::Config gateway_config;
  gateway_config.shards = 1;
  gateway_config.shard_capacity = 16;
  AdmissionGateway gateway(qrm, gateway_config);

  const circuit::Circuit circuit =
      calibration::GhzBenchmark::chain_circuit(device, 4);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        StampedJob item;
        item.ticket = t * kPerThread + i;
        item.job.name = "j" + std::to_string(item.ticket);
        item.job.circuit = circuit;
        item.job.shots = 10;
        gateway.offer(std::move(item));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const auto outcomes = gateway.drain_and_admit();
  ASSERT_EQ(outcomes.size(), kThreads * kPerThread);
  EXPECT_EQ(gateway.offered(), kThreads * kPerThread);
  EXPECT_GT(gateway.backpressure_events(), 0u);  // the overflow path ran
  // Ticket order was restored even though most offers took the slow path.
  for (std::size_t i = 0; i < outcomes.size(); ++i)
    EXPECT_EQ(outcomes[i].first, i);
  // Every offer reached exactly one admission decision.
  const JobConservation audit = qrm.conservation();
  EXPECT_EQ(audit.submitted, kThreads * kPerThread);
  EXPECT_TRUE(audit.holds());
  expect_ledger_matches_records(qrm);
}

}  // namespace
}  // namespace hpcqc::sched
