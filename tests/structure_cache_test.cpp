// The thread-safe structure cache under real concurrency: single-flight
// dedup, LRU eviction order, exception propagation, and eviction racing
// in-flight joins. The StructureCache suite runs under tsan in CI (see
// CMakePresets.json) — keep all cross-thread traffic data-race-free.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/mqss/structure_cache.hpp"
#include "hpcqc/qdmi/model_device.hpp"

namespace hpcqc::mqss {
namespace {

StructureCache::Value make_value() {
  return std::make_shared<const CompiledTemplate>();
}

TEST(StructureCache, HitMissAndLruEvictionOrder) {
  StructureCache cache(2);
  int compiles = 0;
  const auto factory = [&compiles] {
    ++compiles;
    return make_value();
  };
  EXPECT_FALSE(cache.get_or_compile(1, factory).hit);
  EXPECT_FALSE(cache.get_or_compile(2, factory).hit);
  EXPECT_TRUE(cache.get_or_compile(1, factory).hit);  // 1 is now MRU
  EXPECT_FALSE(cache.get_or_compile(3, factory).hit);  // evicts 2, not 1
  EXPECT_TRUE(cache.get_or_compile(1, factory).hit);
  EXPECT_FALSE(cache.get_or_compile(2, factory).hit);  // 2 was the victim
  EXPECT_EQ(compiles, 4);

  const StructureCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.evictions, 2u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 2.0 / 6.0);
}

TEST(StructureCache, ShrinkingCapacityEvictsImmediately) {
  StructureCache cache(4);
  for (std::uint64_t key = 0; key < 4; ++key)
    cache.get_or_compile(key, make_value);
  EXPECT_EQ(cache.stats().size, 4u);
  cache.set_capacity(1);
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.stats().evictions, 3u);
  // The survivor is the most recently used key.
  EXPECT_TRUE(cache.get_or_compile(3, make_value).hit);
  EXPECT_THROW(cache.set_capacity(0), PreconditionError);
}

TEST(StructureCache, SingleFlightCompilesOnceUnderContention) {
  StructureCache cache(8);
  std::atomic<int> factory_runs{0};
  const auto slow_factory = [&factory_runs] {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return make_value();
  };

  constexpr int kThreads = 8;
  std::vector<StructureCache::Value> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[t] = cache.get_or_compile(42, slow_factory).value;
    });
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(factory_runs.load(), 1);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(results[t], results[0]);
  const StructureCacheStats stats = cache.stats();
  // Whoever arrived while the flight was open joined it; everyone who paid
  // (or waited for) the compile counts a miss.
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_GE(stats.misses, 1u);
  EXPECT_EQ(stats.single_flight_joins,
            stats.misses - static_cast<std::uint64_t>(factory_runs.load()));
}

TEST(StructureCache, FactoryExceptionReachesEveryWaiterAndCachesNothing) {
  StructureCache cache(8);
  std::atomic<int> factory_runs{0};
  const auto throwing_factory = [&factory_runs]() -> StructureCache::Value {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    throw PreconditionError("deliberate compile failure");
  };

  constexpr int kThreads = 4;
  std::atomic<int> caught{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      try {
        cache.get_or_compile(7, throwing_factory);
      } catch (const PreconditionError&) {
        caught.fetch_add(1);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(caught.load(), kThreads);
  EXPECT_EQ(cache.stats().size, 0u);

  // The failure was not cached: the next get retries the factory.
  EXPECT_FALSE(cache.get_or_compile(7, make_value).hit);
  EXPECT_EQ(cache.stats().size, 1u);
}

TEST(StructureCache, EvictionRacesSingleFlightJoinWithoutLosingResults) {
  // A tiny capacity keeps the LRU under constant eviction pressure while
  // readers walking the keys in opposite orders join each other's
  // in-flight compiles. Every lookup must still produce a value (an evicted
  // entry is recompiled, never handed out null), and the cache must
  // respect its capacity afterwards. Runs under tsan in CI.
  StructureCache cache(2);
  std::atomic<int> factory_runs{0};
  const auto slow_factory = [&factory_runs] {
    factory_runs.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    return make_value();
  };
  constexpr std::uint64_t kKeys = 8;
  std::atomic<int> null_results{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 8; ++t)
    readers.emplace_back([&cache, &slow_factory, &null_results, t] {
      for (int round = 0; round < 50; ++round)
        for (std::uint64_t i = 0; i < kKeys; ++i) {
          const std::uint64_t key = t % 2 == 0 ? i : kKeys - 1 - i;
          if (cache.get_or_compile(key, slow_factory).value == nullptr)
            null_results.fetch_add(1);
        }
    });
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(null_results.load(), 0);
  const StructureCacheStats stats = cache.stats();
  EXPECT_LE(stats.size, 2u);
  EXPECT_GT(stats.evictions, 0u);
  // Single-flight dedup: joiners record misses without running the
  // factory, so compiles never exceed recorded misses.
  EXPECT_GT(factory_runs.load(), 0);
  EXPECT_LE(static_cast<std::uint64_t>(factory_runs.load()), stats.misses);
}

TEST(StructureCache, DeviceIdentityPartitionsServiceCacheKeys) {
  // Fleet serving compiles one structural hash against N devices; the
  // per-device identity salt must key disjoint entries, so a service
  // re-pointed at another identity can never resurrect placements compiled
  // for the first device.
  Rng rng(7);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi(device, clock);
  QpuService service(device, qdmi, rng);
  service.set_device_identity("qpu0");

  circuit::ParametricCircuit ansatz(3);
  ansatz.h(0).ry(circuit::ParamExpr::symbol("a"), 1).cz(0, 1).measure();

  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().misses, 1u);
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().hits, 1u);

  // Same device state, same options, same structural hash — a different
  // identity still misses and compiles its own entry.
  service.set_device_identity("qpu1");
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().misses, 2u);
  EXPECT_EQ(service.cache_stats().size, 2u);

  // Restoring the identity restores its entry: the key is a pure function
  // of (structure, device state, options, identity).
  service.set_device_identity("qpu0");
  service.compile_structure(ansatz);
  EXPECT_EQ(service.cache_stats().hits, 2u);
  EXPECT_EQ(service.cache_stats().size, 2u);
}

}  // namespace
}  // namespace hpcqc::mqss
