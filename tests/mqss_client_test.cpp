#include <gtest/gtest.h>

#include <cstdlib>

#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/adapters.hpp"
#include "hpcqc/mqss/client.hpp"
#include "hpcqc/qdmi/model_device.hpp"

namespace hpcqc::mqss {
namespace {

class ClientTest : public ::testing::Test {
protected:
  ClientTest()
      : rng_(8),
        device_(device::make_iqm20(rng_)),
        qdmi_(device_, clock_),
        service_(device_, qdmi_, rng_) {}

  Rng rng_;
  SimClock clock_;
  device::DeviceModel device_;
  qdmi::ModelBackedDevice qdmi_;
  QpuService service_;
};

TEST_F(ClientTest, HpcPathIsSynchronousAndFast) {
  Client client(service_, clock_, AccessPath::kHpc);
  EXPECT_EQ(client.resolved_path(), AccessPath::kHpc);
  const auto ticket = client.submit(circuit::Circuit::bell(), 1000, "bell");
  EXPECT_TRUE(client.ready(ticket));
  const auto result = client.wait(ticket);
  EXPECT_EQ(result.polls, 0u);
  // Turnaround is just the QPU time: 1000 shots x ~302 us.
  EXPECT_NEAR(result.turnaround, 0.302, 0.02);
  EXPECT_EQ(result.run.counts.total_shots(), 1000u);
}

TEST_F(ClientTest, RestPathAddsQueueAndPollingLatency) {
  Client client(service_, clock_, AccessPath::kRest);
  const auto ticket = client.submit(circuit::Circuit::bell(), 1000, "bell");
  EXPECT_FALSE(client.ready(ticket));
  const auto result = client.wait(ticket);
  EXPECT_GT(result.polls, 0u);
  // Request latency + 5 s queue + execution + polling overhead.
  EXPECT_GT(result.turnaround, 5.0);
  EXPECT_LT(result.turnaround, 20.0);
}

TEST_F(ClientTest, RestIsSlowerThanHpcForTheSameJob) {
  Client hpc(service_, clock_, AccessPath::kHpc);
  Client rest(service_, clock_, AccessPath::kRest);
  const auto hpc_result =
      hpc.wait(hpc.submit(circuit::Circuit::bell(), 500, "a"));
  const auto rest_result =
      rest.wait(rest.submit(circuit::Circuit::bell(), 500, "b"));
  EXPECT_GT(rest_result.turnaround, 10.0 * hpc_result.turnaround);
}

TEST_F(ClientTest, AutoDetectionHonorsEnvironmentOverride) {
  ::setenv("HPCQC_INSIDE_HPC", "1", 1);
  EXPECT_TRUE(detect_inside_hpc());
  Client inside(service_, clock_, AccessPath::kAuto);
  EXPECT_EQ(inside.resolved_path(), AccessPath::kHpc);

  ::setenv("HPCQC_INSIDE_HPC", "0", 1);
  EXPECT_FALSE(detect_inside_hpc());
  Client outside(service_, clock_, AccessPath::kAuto);
  EXPECT_EQ(outside.resolved_path(), AccessPath::kRest);
  ::unsetenv("HPCQC_INSIDE_HPC");
}

TEST_F(ClientTest, AutoDetectionSeesBatchSystem) {
  ::unsetenv("HPCQC_INSIDE_HPC");
  ::setenv("SLURM_JOB_ID", "12345", 1);
  EXPECT_TRUE(detect_inside_hpc());
  ::unsetenv("SLURM_JOB_ID");
}

TEST_F(ClientTest, UnknownTicketThrows) {
  Client client(service_, clock_, AccessPath::kHpc);
  EXPECT_THROW(client.wait({999, AccessPath::kHpc}), NotFoundError);
  EXPECT_THROW(client.ready({999, AccessPath::kHpc}), NotFoundError);
}

TEST_F(ClientTest, ServiceCompileOnlyExposesArtifacts) {
  const auto program = service_.compile_only(circuit::Circuit::ghz(4));
  EXPECT_TRUE(program.native_circuit.is_native());
  EXPECT_FALSE(program.pass_trace.empty());
}

TEST_F(ClientTest, SerializeAllFormats) {
  const auto run = service_.run(circuit::Circuit::ghz(4), 300);
  const auto histogram = service_.serialize(run, net::ResultFormat::kHistogram);
  EXPECT_EQ(net::decode_histogram(histogram).total_shots(), 300u);

  const auto bits =
      service_.serialize(run, net::ResultFormat::kBitstringsPerShot);
  EXPECT_EQ(net::decode_bitstrings(bits).size(), 300u);

  const auto iq = service_.serialize(run, net::ResultFormat::kRawIq);
  EXPECT_EQ(net::decode_raw_iq(iq).size(), 2u * 4u * 300u);
  // Sizes grow in the expected order for this shot count.
  EXPECT_LT(histogram.size_bytes(), bits.size_bytes());
  EXPECT_LT(bits.size_bytes(), iq.size_bytes());
}

TEST_F(ClientTest, BatchAmortizesRestLatency) {
  // N separate submissions pay N request round trips; one batch pays one.
  const std::vector<circuit::Circuit> batch(5, circuit::Circuit::bell());

  SimClock separate_clock;
  Client separate(service_, separate_clock, AccessPath::kRest);
  for (const auto& circuit : batch)
    separate.wait(separate.submit(circuit, 500, "solo"));
  const Seconds separate_total = separate_clock.now();

  SimClock batch_clock;
  Client batched(service_, batch_clock, AccessPath::kRest);
  const auto tickets = batched.submit_batch(batch, 500, "batch");
  ASSERT_EQ(tickets.size(), 5u);
  const auto results = batched.wait_all(tickets);
  ASSERT_EQ(results.size(), 5u);
  for (const auto& result : results)
    EXPECT_EQ(result.run.counts.total_shots(), 500u);
  EXPECT_LT(batch_clock.now(), separate_total);
}

TEST_F(ClientTest, BatchJobsCompleteInOrderOnTheQueue) {
  Client client(service_, clock_, AccessPath::kRest);
  const std::vector<circuit::Circuit> batch(3, circuit::Circuit::bell());
  const auto tickets = client.submit_batch(batch, 1000, "ordered");
  // Later batch entries become ready strictly later (sequential QPU).
  const auto results = client.wait_all(tickets);
  EXPECT_LE(results[0].turnaround, results[1].turnaround);
  EXPECT_LE(results[1].turnaround, results[2].turnaround);
}

TEST_F(ClientTest, BatchOnHpcPathFallsBackToSequentialSubmits) {
  Client client(service_, clock_, AccessPath::kHpc);
  const std::vector<circuit::Circuit> batch(3, circuit::Circuit::bell());
  const auto results = client.wait_all(client.submit_batch(batch, 200));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& result : results) EXPECT_EQ(result.polls, 0u);
  EXPECT_THROW(client.submit_batch({}, 100), PreconditionError);
}

TEST_F(ClientTest, CompileCacheHitsUntilRecalibration) {
  const auto ghz = circuit::Circuit::ghz(4);
  service_.compile_only(ghz);
  EXPECT_EQ(service_.cache_stats().misses, 1u);
  service_.compile_only(ghz);
  service_.compile_only(ghz);
  EXPECT_EQ(service_.cache_stats().hits, 2u);
  EXPECT_EQ(service_.cache_stats().misses, 1u);

  // A different circuit misses.
  service_.compile_only(circuit::Circuit::ghz(5));
  EXPECT_EQ(service_.cache_stats().misses, 2u);

  // Recalibration moves the epoch: everything recompiles against the
  // fresh metrics.
  device_.install_calibration(device_.sample_fresh_calibration(100.0, rng_));
  service_.compile_only(ghz);
  EXPECT_EQ(service_.cache_stats().misses, 3u);
  EXPECT_EQ(service_.cache_stats().hits, 2u);
}

TEST_F(ClientTest, CompileCacheCanBeDisabled) {
  service_.set_compile_cache_enabled(false);
  const auto ghz = circuit::Circuit::ghz(3);
  service_.compile_only(ghz);
  service_.compile_only(ghz);
  EXPECT_EQ(service_.cache_stats().hits, 0u);
  EXPECT_EQ(service_.cache_stats().misses, 0u);
}

TEST_F(ClientTest, OfflineQpuFallsBackToEmulatorAndBreakerRecovers) {
  ResilienceParams resilience;
  resilience.max_attempts = 2;
  resilience.breaker_threshold = 2;
  resilience.breaker_cooldown = minutes(5.0);
  Client client(service_, clock_, AccessPath::kHpc, {}, resilience);
  obs::MetricsRegistry metrics;
  client.set_metrics(&metrics);
  const auto count = [&metrics](const char* name) {
    return metrics.counter(name).count();
  };

  // QPU forced offline: both attempts fail, the breaker opens, and the
  // submission degrades to the digital-twin emulator.
  qdmi_.set_status(qdmi::DeviceStatus::kOffline);
  const auto down =
      client.wait(client.submit(circuit::Circuit::bell(), 500, "down"));
  EXPECT_TRUE(down.run.emulated);
  EXPECT_DOUBLE_EQ(down.run.estimated_fidelity, 1.0);
  EXPECT_DOUBLE_EQ(down.run.qpu_time, 0.0);
  EXPECT_EQ(down.run.counts.total_shots(), 500u);
  EXPECT_EQ(count("client.retries"), 2u);
  EXPECT_EQ(count("client.breaker_opens"), 1u);
  EXPECT_EQ(count("client.fallbacks"), 1u);
  EXPECT_EQ(client.breaker_state(), BreakerState::kOpen);

  // While open, submissions go straight to the emulator without touching
  // the machine: no new failed attempts accumulate.
  const auto held =
      client.wait(client.submit(circuit::Circuit::bell(), 300, "held"));
  EXPECT_TRUE(held.run.emulated);
  EXPECT_EQ(count("client.retries"), 2u);
  EXPECT_EQ(count("client.fallbacks"), 2u);

  // The machine recovers; after the cooldown the half-open probe succeeds
  // and closes the breaker.
  qdmi_.set_status(qdmi::DeviceStatus::kIdle);
  clock_.advance(resilience.breaker_cooldown);
  EXPECT_EQ(client.breaker_state(), BreakerState::kHalfOpen);
  const auto probe =
      client.wait(client.submit(circuit::Circuit::bell(), 400, "probe"));
  EXPECT_FALSE(probe.run.emulated);
  EXPECT_EQ(probe.run.counts.total_shots(), 400u);
  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
}

TEST_F(ClientTest, TransientFaultIsRetriedWithoutFallback) {
  // A network-transfer fault window covers the first attempt only; the
  // submission timeout pushes the retry past it.
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kNetworkTransfer, seconds(5.0),
            "result transfer corrupted"});
  fault::FaultInjector injector(plan);
  service_.set_fault_context(&injector, &clock_);

  Client client(service_, clock_, AccessPath::kHpc);
  obs::MetricsRegistry metrics;
  client.set_metrics(&metrics);
  const auto result =
      client.wait(client.submit(circuit::Circuit::bell(), 200, "retried"));
  EXPECT_FALSE(result.run.emulated);
  EXPECT_EQ(result.run.counts.total_shots(), 200u);
  EXPECT_EQ(metrics.counter("client.retries").count(), 1u);
  EXPECT_EQ(metrics.counter("client.fallbacks").count(), 0u);
  EXPECT_EQ(client.breaker_state(), BreakerState::kClosed);
  service_.set_fault_context(nullptr, nullptr);
}

TEST_F(ClientTest, ServiceFaultSitesThrowTypedTransientErrors) {
  fault::FaultPlan plan;
  plan.add({0.0, fault::FaultSite::kQdmiQuery, seconds(5.0), "QDMI timeout"});
  fault::FaultInjector injector(plan);
  service_.set_fault_context(&injector, &clock_);
  try {
    service_.run(circuit::Circuit::bell(), 100);
    FAIL() << "expected TransientError";
  } catch (const TransientError& error) {
    EXPECT_TRUE(error.transient());
    EXPECT_EQ(error.code(), ErrorCode::kTimeout);
  }
  clock_.advance(seconds(10.0));  // window over
  EXPECT_EQ(service_.run(circuit::Circuit::bell(), 100).counts.total_shots(),
            100u);
  service_.set_fault_context(nullptr, nullptr);
}

TEST_F(ClientTest, FallbackDisabledRethrowsAfterExhaustion) {
  ResilienceParams resilience;
  resilience.max_attempts = 1;
  resilience.emulator_fallback = false;
  Client client(service_, clock_, AccessPath::kHpc, {}, resilience);
  qdmi_.set_status(qdmi::DeviceStatus::kOffline);
  EXPECT_THROW(client.submit(circuit::Circuit::bell(), 100), TransientError);
}

TEST_F(ClientTest, CompileCacheEpochIgnoresTimestampCollisions) {
  const auto ghz = circuit::Circuit::ghz(4);
  service_.compile_only(ghz);
  // Two recalibrations landing at the same simulated instant must both
  // invalidate: the monotonic epoch counter, not the timestamp, is the key.
  device_.install_calibration(device_.sample_fresh_calibration(50.0, rng_));
  service_.compile_only(ghz);
  device_.install_calibration(device_.sample_fresh_calibration(50.0, rng_));
  service_.compile_only(ghz);
  EXPECT_EQ(service_.cache_stats().misses, 3u);
  EXPECT_EQ(service_.cache_stats().hits, 0u);
}

TEST_F(ClientTest, CompileCacheCapacityEvictsOldestFirst) {
  service_.set_compile_cache_capacity(2);
  service_.compile_only(circuit::Circuit::ghz(3));
  service_.compile_only(circuit::Circuit::ghz(4));
  service_.compile_only(circuit::Circuit::ghz(5));  // evicts ghz(3)
  EXPECT_EQ(service_.cache_stats().size, 2u);
  service_.compile_only(circuit::Circuit::ghz(5));  // still cached
  EXPECT_EQ(service_.cache_stats().hits, 1u);
  service_.compile_only(circuit::Circuit::ghz(3));  // was evicted: miss
  EXPECT_EQ(service_.cache_stats().misses, 4u);
  EXPECT_EQ(service_.cache_stats().size, 2u);

  service_.set_compile_cache_capacity(1);  // shrinking evicts immediately
  EXPECT_EQ(service_.cache_stats().size, 1u);
  EXPECT_THROW(service_.set_compile_cache_capacity(0), PreconditionError);
}

TEST_F(ClientTest, CompileCacheEvictsLeastRecentlyUsedNotOldest) {
  // True LRU (not FIFO): touching an old entry protects it from eviction.
  service_.set_compile_cache_capacity(2);
  service_.compile_only(circuit::Circuit::ghz(3));  // oldest insertion
  service_.compile_only(circuit::Circuit::ghz(4));
  service_.compile_only(circuit::Circuit::ghz(3));  // refresh: ghz(4) is LRU
  service_.compile_only(circuit::Circuit::ghz(5));  // evicts ghz(4)
  EXPECT_EQ(service_.cache_stats().evictions, 1u);
  service_.compile_only(circuit::Circuit::ghz(3));  // still cached
  EXPECT_EQ(service_.cache_stats().hits, 2u);
  EXPECT_EQ(service_.cache_stats().misses, 3u);
  service_.compile_only(circuit::Circuit::ghz(4));  // the FIFO survivor died
  EXPECT_EQ(service_.cache_stats().misses, 4u);
  EXPECT_EQ(service_.cache_stats().evictions, 2u);
}

TEST(CircuitHash, StableAndDiscriminating) {
  const auto a = circuit::Circuit::ghz(4);
  const auto b = circuit::Circuit::ghz(4);
  EXPECT_EQ(a.structural_hash(), b.structural_hash());
  EXPECT_NE(a.structural_hash(), circuit::Circuit::ghz(5).structural_hash());
  circuit::Circuit c(2);
  c.rx(0.5, 0);
  circuit::Circuit d(2);
  d.rx(0.5000001, 0);
  EXPECT_NE(c.structural_hash(), d.structural_hash());
  circuit::Circuit e(2);
  e.rx(0.5, 1);
  EXPECT_NE(c.structural_hash(), e.structural_hash());
}

TEST(Adapters, QpiProgramBuildsCircuits) {
  QpiProgram program(3);
  program.op("h", {0})
      .op("cx", {0, 1})
      .op("prx", {2}, {0.5, 0.25})
      .measure_all();
  EXPECT_EQ(program.num_qubits(), 3);
  EXPECT_EQ(program.size(), 4u);
  EXPECT_EQ(program.circuit().ops()[1].kind, circuit::OpKind::kCx);
  EXPECT_THROW(program.op("nonsense", {0}), ParseError);
  EXPECT_THROW(program.op("h", {7}), PreconditionError);
  EXPECT_THROW(program.op("rx", {0}), PreconditionError);  // missing param
}

TEST(Adapters, RegistryTranslatesText) {
  const auto registry = AdapterRegistry::with_builtins();
  EXPECT_TRUE(registry.has_adapter("text"));
  EXPECT_FALSE(registry.has_adapter("qiskit"));
  const auto circuit = registry.translate("text", "qubits 2\nh q0\nmeasure\n");
  EXPECT_EQ(circuit.num_qubits(), 2);
  EXPECT_THROW(registry.translate("qiskit", ""), NotFoundError);
  EXPECT_THROW(registry.translate("text", "garbage"), ParseError);
}

TEST(Adapters, CustomAdapterRegistration) {
  auto registry = AdapterRegistry::with_builtins();
  registry.register_adapter("bell-only", [](const std::string&) {
    return circuit::Circuit::bell();
  });
  EXPECT_EQ(registry.adapter_names().size(), 2u);
  const auto circuit = registry.translate("bell-only", "anything");
  EXPECT_EQ(circuit.num_qubits(), 2);
}

}  // namespace
}  // namespace hpcqc::mqss
