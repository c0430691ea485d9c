// Fault drill: a two-day seeded chaos campaign against the digital twin.
//
// A generated fault plan plus three hand-placed events exercise the whole
// resilient job path: transient execution faults retry with backoff, a job
// caught in a persistent fault window dead-letters, a thermal excursion
// takes the QPU through the full §3.5 outage -> cooldown -> recalibration ->
// verification staging while the queue is retained, and the availability /
// MTTR arithmetic comes out of the telemetry store at the end.
//
// Run it twice: the same seed prints the same report, line for line.

#include <iostream>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/ops/resilience.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/alerts.hpp"
#include "hpcqc/telemetry/health.hpp"

using namespace hpcqc;

int main() {
  const std::uint64_t seed = 2026;
  const Seconds horizon = days(2.0);

  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  EventLog log;
  cryo::Cryostat cryostat;
  telemetry::TimeSeriesStore store;
  telemetry::AlertEngine alerts;
  ops::ResilienceSupervisor::install_alert_rules(alerts);

  // Background fault pressure from rates, plus three scripted events.
  fault::FaultPlan::Params fault_params;
  fault_params.horizon = horizon;
  fault_params.qdmi_query = {hours(10.0), minutes(2.0)};
  fault::FaultPlan plan = fault::FaultPlan::generate(fault_params, seed);
  plan.add({hours(4.0), fault::FaultSite::kDeviceExecution, minutes(2.0),
            "control-electronics glitch"});
  plan.add({hours(8.0), fault::FaultSite::kDeviceExecution, hours(3.0),
            "persistent readout fault"});
  plan.add({hours(20.0), fault::FaultSite::kThermalExcursion, minutes(15.0),
            "compressor failure"});
  fault::FaultInjector injector(plan);

  std::cout << "Fault plan (" << plan.size() << " events):\n";
  for (const auto& event : plan.events())
    std::cout << "  t=" << Table::num(to_hours(event.at), 2) << " h  "
              << to_string(event.site) << "  ("
              << Table::num(to_minutes(event.duration), 1) << " min): "
              << event.description << '\n';

  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kAuto;
  sched::Qrm qrm(device, config, rng, &log);
  qrm.set_fault_injector(&injector);

  ops::ResilienceSupervisor::Params params;
  params.recovery.benchmark.qubits = 8;
  params.recovery.benchmark.analytic = true;
  ops::ResilienceSupervisor supervisor(qrm, cryostat, device, injector, rng,
                                       &log, &store, params);

  // A light workload: one small GHZ job every two hours.
  const Seconds dt = minutes(15.0);
  Seconds next_submit = hours(2.0);
  std::vector<int> ids;
  for (Seconds t = 0.0; t <= horizon; t += dt) {
    supervisor.step(t);
    qrm.advance_to(t);
    if (t >= next_submit) {
      next_submit += hours(2.0);
      sched::QuantumJob job;
      job.name = "ghz-" + std::to_string(ids.size());
      job.circuit = calibration::GhzBenchmark::chain_circuit(device, 5);
      job.shots = 500;
      ids.push_back(qrm.submit(std::move(job)));
    }
    alerts.evaluate(store, t);
  }
  Seconds t = horizon;
  while (supervisor.outage_active()) {
    t += dt;
    supervisor.step(t);
    qrm.advance_to(t);
  }
  qrm.drain();

  std::cout << "\n=== Drill report ===\n";
  obs::MetricsRegistry& metrics = qrm.metrics_registry();
  const auto count = [&metrics](const char* name) {
    return metrics.counter(name).count();
  };
  std::cout << "jobs: " << count("qrm.jobs_completed") << " completed, "
            << count("qrm.jobs_failed") << " dead-lettered, "
            << count("qrm.retries") << " retries over "
            << count("qrm.execution_faults") << " execution faults, "
            << count("qrm.calibrations_failed") << " failed calibrations\n";
  for (const auto& letter : qrm.dead_letters())
    std::cout << "dead letter: '" << letter.name << "' after "
              << letter.attempts << " attempts (" << letter.reason << ")\n";

  obs::MetricsRegistry& resilience = supervisor.metrics_registry();
  const Seconds downtime = resilience.counter("resilience.downtime_s").value();
  const std::uint64_t recoveries =
      resilience.counter("resilience.recoveries").count();
  const Seconds mttr =
      recoveries == 0 ? 0.0 : downtime / static_cast<double>(recoveries);
  std::cout << "outages: " << resilience.counter("resilience.outages").count()
            << ", total downtime " << Table::num(to_hours(downtime), 1)
            << " h, MTTR " << Table::num(to_hours(mttr), 1) << " h\n";
  for (const auto& report : supervisor.reports())
    std::cout << "recovery: peak " << Table::num(report.peak_temperature, 2)
              << " K -> " << to_string(report.calibration_used)
              << " recalibration, cooldown "
              << Table::num(to_hours(report.cooldown), 1) << " h\n";

  const auto availability = telemetry::availability_from_store(
      store, "resilience.qpu_online", 0.0, horizon);
  std::cout << "availability (telemetry): "
            << Table::num(availability.availability(), 4) << " over "
            << Table::num(to_days(availability.window), 1) << " days, "
            << availability.outages << " outage(s)\n";
  std::cout << "alerts raised/cleared: " << alerts.history().size()
            << " transitions, " << alerts.active_count()
            << " still active\n";
  return 0;
}
