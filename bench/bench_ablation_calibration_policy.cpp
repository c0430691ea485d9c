// Ablation for **Lesson 2**: "it is critical that the center retains full
// control over scheduling these maintenance and calibration slots to align
// with current and upcoming user workloads."
//
// Three calibration trigger policies run the same three-week workload:
//  - fixed-interval: full recalibration every 24 h, regardless of the queue;
//  - on-threshold: recalibrate the moment the health benchmark degrades,
//    preempting user jobs;
//  - scheduler-controlled: threshold-driven, but slots are placed when the
//    QPU queue is idle (the paper's model).
//
// Expected shape: scheduler-controlled matches or beats the others on
// fidelity-weighted throughput ("good shots") while spending calibration
// time outside user pressure; fixed-interval wastes uptime when healthy and
// runs degraded when unlucky.

#include <benchmark/benchmark.h>

#include <iostream>

#include "hpcqc/common/stats.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/sched/workload.hpp"

namespace {

using namespace hpcqc;

struct PolicyResult {
  double jobs_completed = 0.0;
  double total_shots = 0.0;
  double good_shots = 0.0;
  Seconds mean_wait = 0.0;  ///< over dispatches (no faults: one per job)
  Seconds calibration_time = 0.0;
  std::size_t quick = 0;
  std::size_t full = 0;
};

PolicyResult run_policy(calibration::TriggerPolicy policy,
                        Seconds fixed_interval, std::uint64_t seed) {
  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm::Config config;
  config.controller.policy = policy;
  config.controller.fixed_interval = fixed_interval;
  config.benchmark.qubits = 12;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  sched::Qrm qrm(device, config, rng, nullptr);

  // Heavy workload: the QPU is near saturation, so calibration slots
  // genuinely compete with user jobs. Only work finished inside the
  // 21-day horizon counts (no drain).
  Rng workload_rng(404);  // identical workload across policies
  auto jobs = sched::generate_quantum_workload(
      device, {days(21.0), 10.0, 4, 18, 400000, 1200000, 5}, workload_rng);
  for (auto& [at, job] : jobs) {
    qrm.advance_to(at);
    qrm.submit(std::move(job));
  }
  qrm.advance_to(days(21.0));

  obs::MetricsRegistry& metrics = qrm.metrics_registry();
  PolicyResult result;
  result.jobs_completed = metrics.counter("qrm.jobs_completed").value();
  result.total_shots = metrics.counter("qrm.total_shots").value();
  result.good_shots = metrics.counter("qrm.good_shots").value();
  result.mean_wait = metrics.histogram("qrm.queue_wait_s").mean();
  result.calibration_time = metrics.counter("qrm.calibration_time_s").value();
  result.quick =
      qrm.controller().calibration_count(calibration::CalibrationKind::kQuick);
  result.full =
      qrm.controller().calibration_count(calibration::CalibrationKind::kFull);
  return result;
}

void print_reproduction() {
  std::cout << "=== Ablation (Lesson 2): calibration trigger policy ===\n"
            << "21-day identical workload, ~10 jobs/h x ~0.8M shots (near-saturated QPU)\n\n";
  Table table({"Policy", "Jobs done", "Good shots", "Good/total",
               "Mean wait [min]", "Cal time [h]", "Quick", "Full"});
  const struct {
    const char* label;
    calibration::TriggerPolicy policy;
    Seconds fixed_interval;
  } variants[] = {
      {"fixed-interval 24 h", calibration::TriggerPolicy::kFixedInterval,
       hours(24.0)},
      {"fixed-interval 96 h", calibration::TriggerPolicy::kFixedInterval,
       hours(96.0)},
      {"on-threshold", calibration::TriggerPolicy::kOnThreshold, hours(24.0)},
      {"scheduler-controlled",
       calibration::TriggerPolicy::kSchedulerControlled, hours(24.0)},
  };
  for (const auto& variant : variants) {
    RunningStats jobs_done;
    RunningStats good;
    RunningStats ratio;
    RunningStats wait;
    RunningStats cal_time;
    RunningStats quick;
    RunningStats full;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto result =
          run_policy(variant.policy, variant.fixed_interval, seed * 7919);
      jobs_done.add(result.jobs_completed);
      good.add(result.good_shots);
      ratio.add(result.good_shots / result.total_shots);
      wait.add(to_minutes(result.mean_wait));
      cal_time.add(to_hours(result.calibration_time));
      quick.add(static_cast<double>(result.quick));
      full.add(static_cast<double>(result.full));
    }
    table.add_row({variant.label, Table::num(jobs_done.mean(), 0),
                   Table::num(good.mean(), 0), Table::num(ratio.mean(), 4),
                   Table::num(wait.mean(), 1), Table::num(cal_time.mean(), 1),
                   Table::num(quick.mean(), 1), Table::num(full.mean(), 1)});
  }
  table.print(std::cout);
  std::cout << "\nExpected shape: a fixed interval forces an a-priori "
               "quality/throughput pick (24 h: best per-shot quality, most "
               "QPU hours burned calibrating; 96 h: cheap but stale), while "
               "the adaptive policies track the benchmark and calibrate only "
               "when needed; the scheduler-controlled variant additionally "
               "places those slots in queue-idle gaps (Lesson 2).\n\n";
}

void BM_PolicyWeek(benchmark::State& state) {
  const auto policy =
      static_cast<calibration::TriggerPolicy>(state.range(0));
  for (auto _ : state) {
    Rng rng(5);
    device::DeviceModel device = device::make_iqm20(rng);
    sched::Qrm::Config config;
    config.controller.policy = policy;
    config.benchmark.qubits = 10;
    config.benchmark.analytic = true;
    config.execution_mode = device::ExecutionMode::kEstimateOnly;
    sched::Qrm qrm(device, config, rng, nullptr);
    qrm.advance_to(days(7.0));
    benchmark::DoNotOptimize(qrm.conservation());
  }
}
BENCHMARK(BM_PolicyWeek)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
