// Degraded-mode drill: keep serving while the device shrinks under it.
//
// A one-day campaign drops three qubits and two couplers mid-run (readout
// drift, TLS defects, flux instability on a coupler) while a runaway batch
// submitter floods the queue with low-priority work. The supervisor masks
// each failed element instead of declaring an outage, the compiler keeps
// placing jobs on the healthy subgraph, admission control refuses the
// overload, and targeted recalibration restores each element ~10 minutes
// after its fault clears. The report tables the three phases — baseline,
// degraded, recovered — by availability, healthy capacity, and shed rate.
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
  const Seconds horizon = days(1.0);

  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  EventLog log;
  cryo::Cryostat cryostat;
  telemetry::TimeSeriesStore store;
  telemetry::AlertEngine alerts;
  ops::ResilienceSupervisor::install_alert_rules(alerts, "resilience",
                                                 /*min_healthy_qubits=*/19.5);

  // Five partial-degrade events plus a queue flood, all inside [6 h, 12 h).
  fault::FaultPlan plan;
  plan.add({hours(6.0), fault::FaultSite::kQubitDropout, hours(2.0),
            "readout drift on q3", 3});
  plan.add({hours(6.5), fault::FaultSite::kCouplerDropout, hours(1.5),
            "flux instability on coupler 5", 5});
  plan.add({hours(7.0), fault::FaultSite::kQubitDropout, hours(3.0),
            "TLS defect on q11", 11});
  plan.add({hours(8.0), fault::FaultSite::kQueueFlood, hours(2.0),
            "runaway batch submitter"});
  plan.add({hours(8.5), fault::FaultSite::kQubitDropout, hours(1.0),
            "anomalous T1 on q16", 16});
  plan.add({hours(9.0), fault::FaultSite::kCouplerDropout, hours(2.0),
            "flux instability on coupler 20", 20});
  fault::FaultInjector injector(plan);

  std::cout << "Fault plan (" << plan.size() << " events):\n";
  for (const auto& event : plan.events())
    std::cout << "  t=" << Table::num(to_hours(event.at), 2) << " h  "
              << to_string(event.site) << "  ("
              << Table::num(to_minutes(event.duration), 1)
              << " min): " << event.description << '\n';

  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kAuto;
  config.job_overhead = seconds(5.0);
  config.admission.queue_capacity = 12;
  config.admission.burst = 8;
  config.admission.low_rate_per_hour = 60.0;
  config.admission.brownout_wait_limit = seconds(30.0);
  sched::Qrm qrm(device, config, rng, &log);
  qrm.set_fault_injector(&injector);

  ops::ResilienceSupervisor::Params params;
  params.recovery.benchmark.qubits = 8;
  params.recovery.benchmark.analytic = true;
  params.flood_jobs_per_step = 10;
  params.flood_shots = 100;
  ops::ResilienceSupervisor supervisor(qrm, cryostat, device, injector, rng,
                                       &log, &store, params);

  // Steady workload: one GHZ job per hour, sized for the healthy device but
  // still placeable on the degraded subgraph.
  const Seconds dt = minutes(15.0);
  Seconds next_submit = hours(1.0);
  std::size_t workload_jobs = 0;
  for (Seconds t = 0.0; t <= horizon; t += dt) {
    supervisor.step(t);
    qrm.advance_to(t);
    if (t >= next_submit) {
      next_submit += hours(1.0);
      sched::QuantumJob job;
      job.name = "ghz-" + std::to_string(workload_jobs++);
      job.circuit = calibration::GhzBenchmark::chain_circuit(device, 6);
      job.shots = 400;
      qrm.submit(std::move(job));
    }
    alerts.evaluate(store, t);
  }
  qrm.drain();

  std::cout << "\n=== Drill report ===\n";
  const auto count = [&supervisor](const char* name) {
    return supervisor.metrics_registry().counter(name).count();
  };
  std::cout << "dropouts: " << count("resilience.qubit_dropouts")
            << " qubit, " << count("resilience.coupler_dropouts")
            << " coupler; " << count("resilience.targeted_recals")
            << " targeted recalibrations, " << count("resilience.outages")
            << " full outages\n";
  std::cout << "flood: " << count("resilience.flood_jobs_submitted")
            << " submitted, " << count("resilience.flood_jobs_rejected")
            << " refused at admission\n";

  const auto audit = qrm.conservation();
  std::cout << "conservation: " << audit.submitted << " submitted = "
            << audit.completed << " completed + " << audit.failed
            << " failed + " << audit.shed << " shed + "
            << audit.rejected_overload << " rejected (overload) + "
            << audit.rejected_too_wide << " rejected (too wide)"
            << (audit.holds() ? "  [balanced]" : "  [IMBALANCE]") << '\n';

  // Phase table: the degraded window is bracketed by the first fault and the
  // last targeted recalibration (last fault end + 10 min recal).
  struct Phase {
    const char* name;
    Seconds t0, t1;
  };
  const Phase phases[] = {{"baseline", 0.0, hours(5.9)},
                          {"degraded", hours(6.0), hours(11.25)},
                          {"recovered", hours(11.5), horizon}};
  Table table({"phase", "window (h)", "availability", "healthy qubits (min)",
               "largest comp (min)", "jobs refused", "shed rate (cum.)"});
  double prev_refused = 0.0;
  for (const auto& phase : phases) {
    const auto availability = telemetry::availability_from_store(
        store, "resilience.qpu_online", phase.t0, phase.t1);
    const auto healthy =
        store.aggregate("resilience.healthy_qubits", phase.t0, phase.t1);
    const auto component =
        store.aggregate("resilience.largest_component", phase.t0, phase.t1);
    const auto refused =
        store.aggregate("resilience.shed_jobs", phase.t0, phase.t1);
    const auto rate =
        store.aggregate("resilience.shed_rate", phase.t0, phase.t1);
    table.add_row({phase.name,
                   Table::num(to_hours(phase.t0), 1) + " - " +
                       Table::num(to_hours(phase.t1), 1),
                   Table::num(availability.availability(), 4),
                   Table::num(healthy.min, 0), Table::num(component.min, 0),
                   Table::num(refused.last - prev_refused, 0),
                   Table::num(rate.last, 3)});
    prev_refused = refused.last;
  }
  table.print(std::cout);

  std::cout << "alerts raised/cleared: " << alerts.history().size()
            << " transitions, " << alerts.active_count() << " still active\n";
  std::cout << "final healthy qubits: "
            << device.health().healthy_qubit_count() << " / "
            << device.topology().num_qubits() << '\n';
  return 0;
}
