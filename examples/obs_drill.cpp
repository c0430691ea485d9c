// Observability drill: a one-day seeded chaos campaign with the full
// tracing / metrics / flight-recorder stack attached.
//
// Every submission produces one connected span tree on the simulated clock
// (submit -> admission -> queue wait -> attempts -> terminal state); the
// campaign deliberately drives jobs into every failure terminal state so
// the flight recorder captures post-mortems as they happen; the shared
// metrics registry covers the QRM and the resilience supervisor; and the
// telemetry bridge re-exports the registry next to the facility sensors.
//
// Artifacts: obs_trace.json (Chrome trace_event format — open it in
// chrome://tracing or Perfetto) validated in-process by the schema checker,
// plus a metrics snapshot and the incident post-mortems on stdout.
//
// Run it twice: the same seed writes byte-identical artifacts.

#include <fstream>
#include <iostream>
#include <sstream>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/obs/export.hpp"
#include "hpcqc/obs/flight_recorder.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/ops/resilience.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/alerts.hpp"
#include "hpcqc/telemetry/obs_bridge.hpp"
#include "hpcqc/telemetry/store.hpp"

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
  telemetry::install_obs_alert_rules(alerts);

  // The whole observability stack: one tracer (clocked off the QRM), one
  // flight recorder dumping incidents live, one registry shared by the QRM
  // and the supervisor.
  obs::Tracer tracer;
  obs::FlightRecorder recorder(2048, 64);
  std::ostringstream incidents;
  recorder.set_dump_sink(&incidents);
  tracer.set_flight_recorder(&recorder);
  obs::MetricsRegistry registry;

  // Chaos: a transient glitch (retries), a persistent window (dead-letter),
  // a qubit dropout (degraded hold + too-wide refusal), a queue flood
  // (overload refusals + brownout shedding).
  const auto chain = device.topology().coupled_chain();
  const int dropout_qubit = chain[2];  // inside the held job's route
  fault::FaultPlan plan;
  plan.add({hours(4.0), fault::FaultSite::kDeviceExecution, minutes(2.0),
            "control-electronics glitch"});
  plan.add({hours(8.0), fault::FaultSite::kDeviceExecution, hours(3.0),
            "persistent readout fault"});
  plan.add({hours(14.0), fault::FaultSite::kQubitDropout, hours(2.0),
            "TLS defect on q" + std::to_string(dropout_qubit),
            dropout_qubit});
  plan.add({hours(18.0), fault::FaultSite::kQueueFlood, hours(2.0),
            "runaway batch submitter", -1});
  fault::FaultInjector injector(plan);

  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kAuto;
  config.job_overhead = seconds(5.0);
  config.admission.queue_capacity = 12;
  config.admission.burst = 8.0;
  config.admission.low_rate_per_hour = 60.0;
  config.admission.brownout_wait_limit = seconds(45.0);
  sched::Qrm qrm(device, config, rng, &log, &registry);
  qrm.set_fault_injector(&injector);
  qrm.set_tracer(&tracer);
  tracer.set_now_source([&qrm] { return qrm.now(); });

  ops::ResilienceSupervisor::Params params;
  params.recovery.benchmark.qubits = 8;
  params.recovery.benchmark.analytic = true;
  params.flood_jobs_per_step = 10;
  params.flood_shots = 100;
  params.metrics = &registry;
  ops::ResilienceSupervisor supervisor(qrm, cryostat, device, injector, rng,
                                       &log, &store, params);

  // A full-width circuit built against the healthy device; submitted during
  // the dropout it cannot fit the largest healthy component.
  const circuit::Circuit wide_circuit =
      calibration::GhzBenchmark::chain_circuit(device, device.num_qubits());
  // A narrow circuit routed through the dropout qubit while healthy;
  // submitted mid-dropout it is held (not rejected) until recovery.
  const circuit::Circuit held_circuit =
      calibration::GhzBenchmark::chain_circuit(device, 5);

  const Seconds dt = minutes(15.0);
  Seconds next_submit = hours(1.0);
  std::size_t submitted = 0;
  for (Seconds t = 0.0; t <= horizon + hours(4.0); t += dt) {
    supervisor.step(t);
    qrm.advance_to(t);
    if (t >= next_submit && t <= horizon) {
      next_submit += hours(2.0);
      sched::QuantumJob job;
      job.name = "ghz-" + std::to_string(submitted++);
      job.circuit = calibration::GhzBenchmark::chain_circuit(device, 5);
      job.shots = 500;
      qrm.submit(std::move(job));
    }
    if (t == hours(14.5)) {
      sched::QuantumJob wide;
      wide.name = "wide-job";
      wide.circuit = wide_circuit;
      wide.shots = 500;
      qrm.submit(std::move(wide));
      sched::QuantumJob held;
      held.name = "held-job";
      held.circuit = held_circuit;
      held.shots = 500;
      qrm.submit(std::move(held));
    }
    telemetry::bridge_metrics(registry, store, t);
    alerts.evaluate(store, t);
  }
  qrm.drain();

  // --- artifacts ---------------------------------------------------------
  const std::string trace_json = obs::chrome_trace_json(tracer);
  const obs::TraceValidation validation =
      obs::validate_chrome_trace(trace_json);
  {
    std::ofstream out("obs_trace.json");
    out << trace_json;
  }

  std::cout << "=== Observability drill ===\n";
  std::cout << "spans recorded: " << tracer.records().size() << " ("
            << tracer.open_spans() << " open), trace export: "
            << (validation.ok ? "VALID" : "INVALID") << ", "
            << validation.events << " events -> obs_trace.json\n";
  for (const auto& error : validation.errors)
    std::cout << "  schema error: " << error << '\n';

  const auto count = [&registry](const char* name) {
    return registry.counter(name).count();
  };
  std::cout << "jobs: " << count("qrm.jobs_completed") << " completed, "
            << count("qrm.jobs_failed") << " dead-lettered, "
            << count("qrm.jobs_rejected_overload") << " rejected (overload), "
            << count("qrm.jobs_rejected_too_wide") << " rejected (too wide), "
            << count("qrm.jobs_shed") << " shed, " << count("qrm.retries")
            << " retries, " << count("qrm.degraded_holds")
            << " degraded holds\n";

  std::cout << "\n--- metrics snapshot (shared registry) ---\n";
  registry.snapshot().print(std::cout);

  std::cout << "\n--- incident post-mortems (flight recorder, live dumps) "
            << "---\n";
  std::cout << "captured " << recorder.post_mortems().size()
            << " post-mortems; ring retained " << recorder.recent().size()
            << " spans (" << recorder.spans_dropped() << " evicted)\n";
  std::cout << incidents.str();

  // One example span tree: the first dead-lettered job, end to end.
  for (const auto& letter : qrm.dead_letters()) {
    const auto trace_id = qrm.record(letter.id).trace.trace_id;
    std::cout << "--- span tree of dead-lettered job '" << letter.name
              << "' ---\n"
              << obs::text_tree(tracer, trace_id);
    break;
  }

  std::cout << "\nalerts: " << alerts.history().size() << " transitions, "
            << alerts.active_count() << " still active\n";
  for (const auto& event : alerts.history())
    std::cout << "  " << (event.raised ? "RAISE" : "clear") << ' '
              << event.rule << " at t=" << Table::num(to_hours(event.time), 2)
              << " h\n";

  return validation.ok ? 0 : 1;
}
