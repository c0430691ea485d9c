// Crash-recovery chaos: a multi-day durable fleet campaign whose control
// plane is killed at scripted and Poisson-drawn points, tearing seeded
// random byte counts off the WAL tail. Every run must conserve jobs, keep
// recovered terminal states frozen (exactly-once), and produce a
// byte-identical report across reruns, seeds, and OMP thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/ops/durable_campaign.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/recovery.hpp"
#include "hpcqc/store/snapshot.hpp"
#include "hpcqc/store/wal.hpp"
#include "ledger_audit.hpp"

namespace hpcqc::ops {
namespace {

DurableCampaignParams chaos_params(std::uint64_t seed) {
  DurableCampaignParams params;
  params.devices = 2;
  params.horizon = days(2.0);
  params.submit_every = minutes(40.0);
  params.snapshot_interval = hours(4.0);
  params.crash_mtbf = hours(14.0);
  params.exec_fault_mtbf = hours(9.0);
  params.max_torn_bytes = 96;
  params.seed = seed;
  return params;
}

void expect_sound(const DurableCampaignResult& outcome) {
  EXPECT_TRUE(outcome.conservation.holds())
      << "submitted=" << outcome.conservation.submitted
      << " completed=" << outcome.conservation.completed
      << " failed=" << outcome.conservation.failed
      << " cancelled=" << outcome.conservation.cancelled
      << " in_flight=" << outcome.conservation.in_flight;
  EXPECT_EQ(outcome.conservation.in_flight, 0u);
  EXPECT_TRUE(outcome.terminal_preserved)
      << "a recovered-terminal job changed state or re-executed";
  EXPECT_GT(outcome.planned_jobs, 0u);
  EXPECT_GT(outcome.snapshots, 0u);
}

TEST(RecoveryChaos, ScriptedCrashesRecoverAndConserveJobs) {
  DurableCampaignParams params = chaos_params(7);
  params.crash_mtbf = 0.0;  // only the scripted kills
  params.scripted_crashes = {hours(11.0), hours(30.0)};
  const DurableCampaignResult outcome = run_durable_campaign(params);
  expect_sound(outcome);
  ASSERT_EQ(outcome.crashes.size(), 2u);
  EXPECT_EQ(outcome.crashes[0].at, hours(11.0));
  EXPECT_EQ(outcome.crashes[1].at, hours(30.0));
  for (const CrashRecord& crash : outcome.crashes) {
    // The campaign checkpoints at every recovery, so from the second crash
    // on there is always a snapshot to start from.
    EXPECT_GE(crash.recovery.replayed + (crash.recovery.had_snapshot ? 1 : 0),
              1u);
  }
  EXPECT_TRUE(outcome.crashes[1].recovery.had_snapshot);
}

TEST(RecoveryChaos, ReportIsByteIdenticalAcrossReruns) {
  const DurableCampaignParams params = chaos_params(42);
  const DurableCampaignResult first = run_durable_campaign(params);
  expect_sound(first);
  EXPECT_FALSE(first.crashes.empty());
  const DurableCampaignResult second = run_durable_campaign(params);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(first.crashes.size(), second.crashes.size());
  EXPECT_EQ(first.resubmitted, second.resubmitted);
}

// Seeded sweep. Defaults stay CI-cheap; nightly runs widen it with
// HPCQC_CHAOS_SEEDS=<n>.
TEST(RecoveryChaos, SeedSweepHoldsTheRecoveryContract) {
  std::size_t budget = 3;
  if (const char* env = std::getenv("HPCQC_CHAOS_SEEDS")) {
    const unsigned long long parsed = std::strtoull(env, nullptr, 10);
    if (parsed > 0) budget = static_cast<std::size_t>(parsed);
  }
  for (std::size_t k = 0; k < budget; ++k) {
    const std::uint64_t seed = 100 + 17 * k;
    DurableCampaignParams params = chaos_params(seed);
    params.horizon = days(1.5);
    const DurableCampaignResult outcome = run_durable_campaign(params);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_sound(outcome);
    const DurableCampaignResult replay = run_durable_campaign(params);
    EXPECT_EQ(outcome.report, replay.report);
  }
}

TEST(RecoveryChaos, RestoredLedgerMatchesTheRecordsAfterEveryCrash) {
  // A QRM under execution faults is killed four times with a seeded torn
  // WAL tail. After every restore, and again after the recovered jobs run
  // on, the O(1) conservation ledger must agree with a walk over the
  // records: restore re-tallies it once, transitions keep it from there.
  store::MemoryWalBackend backend;
  fault::FaultPlan plan;
  plan.add({hours(1.0), fault::FaultSite::kDeviceExecution, hours(2.0),
            "persistent abort"});
  Rng tear(0x7ea5);
  Seconds now = 0.0;
  std::size_t requeued = 0;
  for (int generation = 0; generation < 5; ++generation) {
    SCOPED_TRACE("generation " + std::to_string(generation));
    Rng rng(static_cast<std::uint64_t>(generation) + 1);
    device::DeviceModel device = device::make_iqm20(rng);
    sched::Qrm::Config config;
    config.benchmark.qubits = 8;
    config.benchmark.shots = 200;
    config.benchmark.analytic = true;
    config.execution_mode = device::ExecutionMode::kEstimateOnly;
    sched::Qrm qrm(device, config, rng, nullptr);
    if (generation > 0) {
      requeued += store::Recovery(backend).restore(qrm).requeued;
      // The previous generation's journal replays too.
      EXPECT_GT(qrm.conservation().submitted, 6u * (generation - 1));
      sched::expect_ledger_matches_records(qrm);
      now = qrm.now();
    }
    store::Wal wal(backend);
    store::Journal journal(wal);
    qrm.set_journal(&journal);
    store::Checkpointer checkpointer(wal);
    checkpointer.checkpoint(qrm);
    fault::FaultInjector injector(plan);
    qrm.set_fault_injector(&injector);
    for (int k = 0; k < 6; ++k) {
      sched::QuantumJob job;
      job.name = "g" + std::to_string(generation) + "-" + std::to_string(k);
      job.circuit = calibration::GhzBenchmark::chain_circuit(device, 4 + k % 3);
      job.shots = k == 5 ? 500000 : 300;  // the last one is mid-run at the kill
      qrm.submit(std::move(job));
      now += minutes(12.0);
      qrm.advance_to(now);
    }
    sched::expect_ledger_matches_records(qrm);
    const std::size_t torn =
        std::min<std::size_t>(tear.uniform_index(97), backend.total_bytes());
    backend.truncate_total(backend.total_bytes() - torn);
  }
  EXPECT_GT(requeued, 0u);  // restores did requeue in-flight attempts
}

#ifdef _OPENMP
TEST(RecoveryChaos, ReportIsInvariantAcrossThreadCounts) {
  const DurableCampaignParams params = chaos_params(42);
  const int original = omp_get_max_threads();
  omp_set_num_threads(1);
  const DurableCampaignResult single = run_durable_campaign(params);
  omp_set_num_threads(original > 1 ? original : 4);
  const DurableCampaignResult multi = run_durable_campaign(params);
  omp_set_num_threads(original);
  expect_sound(single);
  EXPECT_EQ(single.report, multi.report);
}
#endif

}  // namespace
}  // namespace hpcqc::ops
