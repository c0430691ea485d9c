// Hybrid co-scheduling: a VQE-shaped workflow holding classical nodes while
// sharing the single QPU with other users — the accelerator integration
// model of §2.6, with the QRM as the second-level scheduler of Fig. 2.
//
// Shows what Lesson 2 is protecting: while the workflow's classical
// allocation idles, its quantum steps queue behind other users' jobs and
// the automated calibration slots. The breakdown quantifies that coupling.

#include <iomanip>
#include <iostream>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/sched/hybrid_workflow.hpp"
#include "hpcqc/sched/workload.hpp"

int main() {
  using namespace hpcqc;

  Rng rng(23);
  device::DeviceModel qpu = device::make_iqm20(rng);

  // The centre: a 128-node cluster plus the QPU behind its QRM.
  sched::HpcScheduler cluster(128);
  sched::Qrm::Config qrm_config;
  qrm_config.benchmark.qubits = 10;
  qrm_config.benchmark.analytic = true;
  qrm_config.execution_mode = device::ExecutionMode::kEstimateOnly;
  EventLog log;
  sched::Qrm qrm(qpu, qrm_config, rng, &log);

  // Background load: classical batch jobs and other users' quantum jobs.
  Rng workload_rng(77);
  for (const auto& [at, job] : sched::generate_classical_workload(
           {hours(4.0), 30.0, 96, minutes(30.0), hours(6.0)}, workload_rng)) {
    cluster.advance_to(at);
    cluster.submit(job);
  }
  for (int i = 0; i < 8; ++i) {
    qrm.submit({"other-user-" + std::to_string(i),
                sched::chain_brickwork_circuit(qpu, 14, 4, workload_rng),
                600000, ""});
  }

  // Our workflow: 12 iterations of classical optimize + quantum evaluate.
  sched::HybridWorkflowSpec spec;
  spec.name = "vqe-campaign";
  spec.classical_nodes = 16;
  spec.iterations = 12;
  spec.classical_step = minutes(4.0);
  spec.circuit = calibration::GhzBenchmark::chain_circuit(qpu, 8);
  spec.shots_per_iteration = 200000;

  sched::HybridWorkflowRunner runner(cluster, qrm);
  const auto result = runner.run(spec);

  std::cout << std::fixed << std::setprecision(1);
  std::cout << "Hybrid workflow '" << spec.name << "' ("
            << spec.classical_nodes << " nodes + shared QPU):\n";
  std::cout << "  allocation wait:     "
            << to_minutes(result.allocation_started_at - result.submitted_at)
            << " min (classical queue)\n";
  std::cout << "  iterations:          " << result.iterations_completed
            << "\n";
  std::cout << "  classical compute:   " << to_minutes(result.classical_time)
            << " min\n";
  std::cout << "  quantum execution:   " << to_minutes(result.quantum_time)
            << " min\n";
  std::cout << "  blocked on the QPU:  " << to_minutes(result.quantum_wait)
            << " min (" << std::setprecision(0)
            << 100.0 * result.qpu_blocking_fraction()
            << " % of the held allocation)\n";
  std::cout << std::setprecision(1)
            << "  total makespan:      " << to_minutes(result.makespan())
            << " min\n\n";

  std::cout << "QRM activity while the workflow ran:\n";
  obs::MetricsRegistry& metrics = qrm.metrics_registry();
  std::cout << "  quantum jobs completed: "
            << metrics.counter("qrm.jobs_completed").count()
            << " (incl. other users)\n";
  std::cout << "  calibration time:       "
            << to_minutes(metrics.counter("qrm.calibration_time_s").value())
            << " min\n";
  std::cout << "  cluster utilization:    " << std::setprecision(0)
            << 100.0 * cluster.utilization(0.0, cluster.now()) << " %\n";
  return 0;
}
