#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/ops/resilience.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/alerts.hpp"
#include "hpcqc/telemetry/health.hpp"

namespace hpcqc {
namespace {

TEST(FaultPlan, GenerateIsDeterministicPerSeed) {
  fault::FaultPlan::Params params;
  params.horizon = days(2.0);
  params.qdmi_query = {hours(6.0), minutes(2.0)};
  params.network_transfer = {hours(9.0), minutes(1.0)};

  const auto a = fault::FaultPlan::generate(params, 11);
  const auto b = fault::FaultPlan::generate(params, 11);
  ASSERT_EQ(a.events().size(), b.events().size());
  EXPECT_GT(a.events().size(), 0u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].site, b.events()[i].site);
    EXPECT_EQ(a.events()[i].duration, b.events()[i].duration);
  }
  const auto c = fault::FaultPlan::generate(params, 12);
  bool identical = a.events().size() == c.events().size();
  if (identical)
    for (std::size_t i = 0; i < a.events().size(); ++i)
      identical = identical && a.events()[i].at == c.events()[i].at;
  EXPECT_FALSE(identical);
}

TEST(FaultPlan, DisablingOneSiteDoesNotPerturbOthers) {
  fault::FaultPlan::Params params;
  params.horizon = days(2.0);
  params.qdmi_query = {hours(6.0), minutes(2.0)};
  params.network_transfer = {hours(9.0), minutes(1.0)};
  const auto both = fault::FaultPlan::generate(params, 21);

  params.network_transfer = {};  // mtbf 0 disables the site
  const auto only_qdmi = fault::FaultPlan::generate(params, 21);
  EXPECT_EQ(only_qdmi.count(fault::FaultSite::kNetworkTransfer), 0u);
  ASSERT_EQ(only_qdmi.count(fault::FaultSite::kQdmiQuery),
            both.count(fault::FaultSite::kQdmiQuery));
  // Per-site RNG streams: the qdmi schedule is bit-identical either way.
  std::vector<Seconds> with;
  std::vector<Seconds> without;
  for (const auto& event : both.events())
    if (event.site == fault::FaultSite::kQdmiQuery) with.push_back(event.at);
  for (const auto& event : only_qdmi.events())
    if (event.site == fault::FaultSite::kQdmiQuery)
      without.push_back(event.at);
  EXPECT_EQ(with, without);
}

TEST(FaultInjector, PollDeliversOnceAndActiveTracksWindows) {
  fault::FaultPlan plan;
  plan.add({10.0, fault::FaultSite::kQdmiQuery, 5.0, "a"});
  plan.add({20.0, fault::FaultSite::kThermalExcursion, 100.0, "b"});
  fault::FaultInjector injector(plan);

  EXPECT_TRUE(injector.poll(5.0).empty());
  const auto first = injector.poll(12.0);
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].description, "a");
  EXPECT_TRUE(injector.poll(12.0).empty());  // one-shot delivery
  const auto second = injector.poll(50.0);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].site, fault::FaultSite::kThermalExcursion);

  EXPECT_TRUE(injector.active(fault::FaultSite::kQdmiQuery, 12.0));
  EXPECT_FALSE(injector.active(fault::FaultSite::kQdmiQuery, 16.0));
  EXPECT_TRUE(injector.active(fault::FaultSite::kThermalExcursion, 90.0));
  EXPECT_FALSE(injector.active(fault::FaultSite::kDeviceExecution, 12.0));
  EXPECT_THROW(injector.poll(10.0), PreconditionError);  // time regression
}

/// Everything one seeded chaos campaign produces, for cross-run comparison.
struct CampaignOutcome {
  std::string log_text;
  obs::MetricsSnapshot metrics;     ///< the QRM's registry
  obs::MetricsSnapshot resilience;  ///< the supervisor's registry
  std::vector<sched::QuantumJobState> final_states;
  std::size_t dead_letters = 0;
  std::vector<ops::RecoveryReport> reports;
  telemetry::AvailabilityReport availability;
  bool down_alert_raised = false;
  bool down_alert_cleared = false;
};

std::uint64_t count(const obs::MetricsSnapshot& snapshot,
                    const std::string& name) {
  return static_cast<std::uint64_t>(snapshot.counter(name)->value);
}

/// A three-day campaign with three injected fault classes: a persistent
/// device-execution window that exhausts one job's retry budget, a
/// calibration-convergence fault, and a thermal excursion that forces the
/// full §3.5 outage -> recovery -> resume staging.
CampaignOutcome run_campaign(std::uint64_t seed) {
  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  EventLog log;
  cryo::Cryostat cryostat;
  telemetry::TimeSeriesStore store;
  telemetry::AlertEngine alerts;
  ops::ResilienceSupervisor::install_alert_rules(alerts);

  fault::FaultPlan::Params fault_params;
  fault_params.horizon = days(3.0);
  fault_params.qdmi_query = {hours(12.0), minutes(2.0)};
  fault::FaultPlan plan = fault::FaultPlan::generate(fault_params, seed);
  plan.add({hours(5.0), fault::FaultSite::kDeviceExecution, hours(4.0),
            "persistent control-electronics fault"});
  plan.add({hours(10.0), fault::FaultSite::kCalibration, minutes(30.0),
            "calibration non-convergence"});
  plan.add({hours(30.0), fault::FaultSite::kThermalExcursion, minutes(20.0),
            "compressor failure"});
  fault::FaultInjector injector(plan);

  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kAuto;
  sched::Qrm qrm(device, config, rng, &log);
  qrm.set_fault_injector(&injector);

  ops::ResilienceSupervisor::Params params;
  params.recovery.benchmark.qubits = 8;
  params.recovery.benchmark.shots = 200;
  params.recovery.benchmark.analytic = true;
  ops::ResilienceSupervisor supervisor(qrm, cryostat, device, injector, rng,
                                       &log, &store, params);

  struct Submission {
    Seconds at;
    int qubits;
    std::size_t shots;
  };
  const std::vector<Submission> submissions = {
      {hours(1.0), 4, 800},  {hours(3.0), 5, 600},
      {hours(5.0), 4, 1000},  // the doomed job, inside the execution window
      {hours(13.0), 6, 1000}, {hours(15.0), 4, 500},
      {hours(31.0), 5, 700},  // submitted mid-outage: retained
      {hours(62.0), 4, 900},  {hours(66.0), 6, 600},
  };
  std::vector<int> ids;

  const Seconds dt = minutes(15.0);
  const int steps = static_cast<int>(days(3.0) / dt);
  std::size_t next_submission = 0;
  for (int k = 0; k <= steps; ++k) {
    const Seconds t = static_cast<double>(k) * dt;
    supervisor.step(t);
    qrm.advance_to(t);
    while (next_submission < submissions.size() &&
           submissions[next_submission].at <= t) {
      const Submission& s = submissions[next_submission++];
      sched::QuantumJob job;
      job.name = "job-" + std::to_string(ids.size());
      job.circuit = calibration::GhzBenchmark::chain_circuit(device, s.qubits);
      job.shots = s.shots;
      ids.push_back(qrm.submit(std::move(job)));
    }
    if (t == hours(10.0))
      qrm.request_calibration(calibration::CalibrationKind::kQuick);
    alerts.evaluate(store, t);
  }

  // Ride out any outage still open at the horizon, then drain the queue.
  Seconds t = days(3.0);
  int guard = 0;
  while (supervisor.outage_active() && ++guard < 10000) {
    t += dt;
    supervisor.step(t);
    qrm.advance_to(t);
  }
  qrm.drain();

  CampaignOutcome outcome;
  std::ostringstream os;
  log.print(os);
  outcome.log_text = os.str();
  outcome.metrics = qrm.metrics_registry().snapshot();
  for (const int id : ids) outcome.final_states.push_back(qrm.record(id).state);
  outcome.dead_letters = qrm.dead_letters().size();
  outcome.resilience = supervisor.metrics_registry().snapshot();
  outcome.reports = supervisor.reports();
  outcome.availability =
      telemetry::availability_from_store(store, "resilience.qpu_online", 0.0,
                                         days(3.0));
  for (const auto& event : alerts.history()) {
    if (event.rule != "resilience.qpu_down") continue;
    if (event.raised)
      outcome.down_alert_raised = true;
    else if (outcome.down_alert_raised)
      outcome.down_alert_cleared = true;
  }
  return outcome;
}

TEST(FaultInjectionCampaign, RetriesDeadLettersAndRecoversFromOutage) {
  const CampaignOutcome outcome = run_campaign(7);

  // Every retriable job completed; only the doomed one dead-lettered.
  ASSERT_EQ(outcome.final_states.size(), 8u);
  for (std::size_t i = 0; i < outcome.final_states.size(); ++i) {
    if (i == 2) {
      EXPECT_EQ(outcome.final_states[i], sched::QuantumJobState::kFailed);
    } else {
      EXPECT_EQ(outcome.final_states[i], sched::QuantumJobState::kCompleted)
          << "job " << i;
    }
  }
  EXPECT_EQ(outcome.dead_letters, 1u);
  EXPECT_EQ(count(outcome.metrics, "qrm.jobs_failed"), 1u);
  EXPECT_EQ(count(outcome.metrics, "qrm.jobs_completed"), 7u);
  EXPECT_GE(count(outcome.metrics, "qrm.retries"), 2u);
  EXPECT_GE(count(outcome.metrics, "qrm.execution_faults"), 3u);
  EXPECT_GE(count(outcome.metrics, "qrm.calibrations_failed"), 1u);

  // The thermal excursion drove one full outage -> recovery cycle, and the
  // excursion went warm enough to need a full recalibration.
  const Seconds downtime =
      outcome.resilience.counter("resilience.downtime_s")->value;
  EXPECT_EQ(count(outcome.resilience, "resilience.outages"), 1u);
  ASSERT_EQ(count(outcome.resilience, "resilience.recoveries"), 1u);
  EXPECT_GT(downtime, hours(2.0));
  ASSERT_EQ(outcome.reports.size(), 1u);
  EXPECT_GT(outcome.reports[0].peak_temperature, 1.0);
  EXPECT_FALSE(outcome.reports[0].calibration_preserved);
  EXPECT_EQ(outcome.reports[0].calibration_used,
            calibration::CalibrationKind::kFull);

  // Availability + MTTR through the telemetry layer agree with the
  // supervisor's exact bookkeeping to within the sampling step.
  EXPECT_EQ(outcome.availability.outages, 1u);
  EXPECT_GT(outcome.availability.availability(), 0.3);
  EXPECT_LT(outcome.availability.availability(), 0.95);
  EXPECT_NEAR(outcome.availability.downtime,
              std::min(downtime, days(3.0) - hours(30.0)),
              hours(1.0));
  EXPECT_GT(outcome.availability.mttr(), 0.0);

  // The down alert both raised and cleared.
  EXPECT_TRUE(outcome.down_alert_raised);
  EXPECT_TRUE(outcome.down_alert_cleared);
}

TEST(FaultInjectionCampaign, SameSeedGivesBitIdenticalLogsAndMetrics) {
  const CampaignOutcome a = run_campaign(7);
  const CampaignOutcome b = run_campaign(7);
  EXPECT_EQ(a.log_text, b.log_text);
  EXPECT_TRUE(a.metrics == b.metrics);
  EXPECT_TRUE(a.resilience == b.resilience);
  EXPECT_EQ(a.final_states, b.final_states);
  EXPECT_EQ(a.availability.downtime, b.availability.downtime);

  const CampaignOutcome c = run_campaign(8);
  EXPECT_NE(a.log_text, c.log_text);
}

#ifdef _OPENMP
TEST(FaultInjectionCampaign, DeterministicAcrossThreadCounts) {
  const int original = omp_get_max_threads();
  omp_set_num_threads(1);
  const CampaignOutcome one = run_campaign(7);
  omp_set_num_threads(original > 1 ? original : 4);
  const CampaignOutcome many = run_campaign(7);
  omp_set_num_threads(original);
  EXPECT_EQ(one.log_text, many.log_text);
  EXPECT_TRUE(one.metrics == many.metrics);
  EXPECT_TRUE(one.resilience == many.resilience);
  EXPECT_EQ(one.final_states, many.final_states);
}
#endif

}  // namespace
}  // namespace hpcqc
