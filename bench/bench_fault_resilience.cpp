// Measures the resilient job path: what the fault-injection harness and the
// retry / degraded-mode machinery cost when nothing is broken, and how a
// chaos campaign's availability arithmetic comes out when something is.
//
// Expected shape: fault bookkeeping is nanoseconds against millisecond-scale
// submissions (the harness is free when idle), and a multi-day campaign with
// a thermal excursion lands in the availability regime the §3.5 staging
// implies — roughly a day of downtime per >1 K excursion.

#include <benchmark/benchmark.h>

#include <iostream>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/client.hpp"
#include "hpcqc/ops/resilience.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/health.hpp"

namespace {

using namespace hpcqc;

void print_reproduction() {
  std::cout << "=== Fault-injection drill: availability and MTTR ===\n\n";
  Table table({"Excursion", "Downtime [h]", "Availability (3 days)",
               "MTTR [h]", "Recalibration"});

  for (const Seconds excursion :
       {seconds(90.0), minutes(20.0), hours(2.0)}) {
    Rng rng(5);
    device::DeviceModel device = device::make_iqm20(rng);
    EventLog log;
    cryo::Cryostat cryostat;
    telemetry::TimeSeriesStore store;

    fault::FaultPlan plan;
    plan.add({hours(24.0), fault::FaultSite::kThermalExcursion, excursion,
              "cooling fault"});
    fault::FaultInjector injector(plan);

    sched::Qrm::Config config;
    config.benchmark.qubits = 8;
    config.benchmark.shots = 200;
    config.benchmark.analytic = true;
    config.execution_mode = device::ExecutionMode::kEstimateOnly;
    sched::Qrm qrm(device, config, rng, &log);
    qrm.set_fault_injector(&injector);

    ops::ResilienceSupervisor::Params params;
    params.recovery.benchmark.qubits = 8;
    params.recovery.benchmark.analytic = true;
    ops::ResilienceSupervisor supervisor(qrm, cryostat, device, injector, rng,
                                         &log, &store, params);

    const Seconds dt = minutes(15.0);
    for (Seconds t = 0.0; t <= days(3.0); t += dt) {
      supervisor.step(t);
      qrm.advance_to(t);
    }
    obs::MetricsRegistry& metrics = supervisor.metrics_registry();
    const Seconds downtime = metrics.counter("resilience.downtime_s").value();
    const std::uint64_t recoveries =
        metrics.counter("resilience.recoveries").count();
    const Seconds mttr =
        recoveries == 0 ? 0.0 : downtime / static_cast<double>(recoveries);
    const auto& reports = supervisor.reports();
    const char* recal =
        reports.empty() ? "-" : to_string(reports[0].calibration_used);
    table.add_row({to_minutes(excursion) < 10.0
                       ? Table::num(excursion, 0) + " s"
                       : Table::num(to_minutes(excursion), 0) + " min",
                   Table::num(to_hours(downtime), 1),
                   Table::num(1.0 - downtime / days(3.0), 3),
                   Table::num(to_hours(mttr), 1), recal});
  }
  table.print(std::cout);
  std::cout << '\n';
}

void BM_FaultPlanGenerate(benchmark::State& state) {
  fault::FaultPlan::Params params;
  params.horizon = days(static_cast<double>(state.range(0)));
  params.qdmi_query = {hours(6.0), minutes(2.0)};
  params.device_execution = {hours(8.0), minutes(5.0)};
  params.network_transfer = {hours(12.0), minutes(1.0)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(fault::FaultPlan::generate(params, 42));
  }
}
BENCHMARK(BM_FaultPlanGenerate)->Arg(1)->Arg(30)->Arg(180);

void BM_InjectorActiveCheck(benchmark::State& state) {
  fault::FaultPlan::Params params;
  params.horizon = days(30.0);
  params.device_execution = {hours(8.0), minutes(5.0)};
  const fault::FaultInjector injector(fault::FaultPlan::generate(params, 42));
  Seconds t = 0.0;
  for (auto _ : state) {
    t += seconds(10.0);
    if (t > days(30.0)) t = 0.0;
    benchmark::DoNotOptimize(
        injector.active(fault::FaultSite::kDeviceExecution, t));
  }
}
BENCHMARK(BM_InjectorActiveCheck);

void BM_ResilientSubmitHealthyPath(benchmark::State& state) {
  // The cost of the retry/breaker wrapper when the QPU is fine.
  Rng rng(8);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi(device, clock);
  mqss::QpuService service(device, qdmi, rng);
  mqss::Client client(service, clock, mqss::AccessPath::kHpc);
  const auto bell = circuit::Circuit::bell();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.wait(client.submit(bell, 100, "b")));
  }
}
BENCHMARK(BM_ResilientSubmitHealthyPath)->Unit(benchmark::kMicrosecond);

void BM_EmulatorFallbackSubmit(benchmark::State& state) {
  // Degraded mode: the QPU is offline and every submission is served by the
  // digital-twin emulator behind an open breaker.
  Rng rng(8);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi(device, clock);
  mqss::QpuService service(device, qdmi, rng);
  mqss::ResilienceParams resilience;
  resilience.max_attempts = 1;
  resilience.breaker_threshold = 1;
  mqss::Client client(service, clock, mqss::AccessPath::kHpc, {}, resilience);
  qdmi.set_status(qdmi::DeviceStatus::kOffline);
  const auto bell = circuit::Circuit::bell();
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.wait(client.submit(bell, 100, "b")));
  }
}
BENCHMARK(BM_EmulatorFallbackSubmit)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
