// Reproduces **Figure 2**: the MQSS architecture with its two access paths
// — "remote submissions via a REST API and tightly-coupled in-HPC
// execution, transparently managed by its client" — and the multi-dialect
// progressive-lowering compiler underneath.
//
// Expected shape: the same frontend circuit, submitted through both paths,
// produces equivalent results; the REST path pays orders of magnitude more
// turnaround latency (queue + polling round trips), which is why hybrid
// tight-loop algorithms need the accelerator-style path. The lowering trace
// shows the placement -> routing -> native-decomposition -> peephole
// pipeline.

#include <benchmark/benchmark.h>

#include <iostream>
#include <map>
#include <string>

#include "bench_json.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mqss/adapters.hpp"
#include "hpcqc/mqss/client.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/mqss/template.hpp"
#include "hpcqc/qdmi/model_device.hpp"

namespace {

using namespace hpcqc;

// Brickwork hardware-efficient ansatz: `layers` rounds of per-qubit RY
// rotations (each a fresh symbol) separated by CZ entanglers. The shape
// two-phase compilation exists for: one structure, thousands of bindings.
circuit::ParametricCircuit vqe_ansatz(int qubits, int layers) {
  circuit::ParametricCircuit ansatz(qubits);
  int next = 0;
  for (int layer = 0; layer < layers; ++layer) {
    for (int q = 0; q < qubits; ++q)
      ansatz.ry(circuit::ParamExpr::symbol("t" + std::to_string(next++)), q);
    for (int q = 0; q + 1 < qubits; q += 2) ansatz.cz(q, q + 1);
    for (int q = 1; q + 1 < qubits; q += 2) ansatz.cz(q, q + 1);
  }
  ansatz.measure();
  return ansatz;
}

std::map<std::string, double> binding_for(
    const circuit::ParametricCircuit& ansatz, double base) {
  std::map<std::string, double> binding;
  double value = base;
  for (const auto& name : ansatz.parameters()) {
    binding[name] = value;
    value += 0.173;
  }
  return binding;
}

void print_reproduction() {
  std::cout << "=== Figure 2: MQSS client access paths & compiler ===\n\n";
  Rng rng(7);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi_device(device, clock);
  mqss::QpuService service(device, qdmi_device, rng);

  const auto circuit = circuit::Circuit::ghz(6);

  // Lowering trace for one compilation.
  const auto program = service.compile_only(circuit);
  std::cout << "Lowering pipeline (core -> native):";
  for (const auto& pass : program.pass_trace) std::cout << "  " << pass;
  std::cout << "\n  frontend gates: " << circuit.gate_count()
            << "  native gates: " << program.native_gate_count
            << "  SWAPs inserted: " << program.swap_count << "\n\n";

  Table table({"Access path", "Turnaround", "REST polls",
               "QPU time", "GHZ success"});
  for (const auto path : {mqss::AccessPath::kHpc, mqss::AccessPath::kRest}) {
    mqss::Client client(service, clock, path);
    const Seconds before = clock.now();
    const auto result =
        client.wait(client.submit(circuit, 2000, "fig2-probe"));
    (void)before;
    const double ghz = result.run.counts.probability_of(0) +
                       result.run.counts.probability_of((1u << 6) - 1);
    table.add_row({mqss::to_string(path),
                   Table::num(result.turnaround, 3) + " s",
                   std::to_string(result.polls),
                   Table::num(result.run.qpu_time, 3) + " s",
                   Table::num(ghz, 3)});
  }
  table.print(std::cout);

  std::cout << "\nTight-loop amplification (100 VQE-style iterations):\n";
  for (const auto path : {mqss::AccessPath::kHpc, mqss::AccessPath::kRest}) {
    SimClock loop_clock;
    mqss::Client client(service, loop_clock, path);
    for (int i = 0; i < 100; ++i)
      client.wait(client.submit(circuit::Circuit::bell(), 500, "iter"));
    std::cout << "  " << mqss::to_string(path) << " path: "
              << Table::num(loop_clock.now(), 1)
              << " s of simulated wall time\n";
  }
  std::cout << '\n';

  std::cout << "Two-phase parameterized compilation:\n";
  const auto ansatz = vqe_ansatz(6, 2);
  const auto before = service.cache_stats();
  const auto tmpl = service.compile_structure(ansatz);
  for (double sweep = 0.0; sweep < 8.0; sweep += 1.0)
    service.compile_parametric(ansatz, binding_for(ansatz, 0.1 * sweep));
  const auto stats = service.cache_stats();
  std::cout << "  structure compiled once (" << tmpl->slots.size()
            << " parameter slots), then bound "
            << stats.hits - before.hits << " more times from cache\n"
            << "  lifetime structure-cache hit rate: "
            << Table::num(stats.hit_rate(), 3) << "  (hits " << stats.hits
            << ", misses " << stats.misses << ")\n\n";
}

void BM_CompileGhz(benchmark::State& state) {
  Rng rng(1);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  const qdmi::ModelBackedDevice qdmi_device(device, clock);
  const auto circuit =
      circuit::Circuit::ghz(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(mqss::compile(circuit, qdmi_device));
  }
}
BENCHMARK(BM_CompileGhz)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMicrosecond);

void BM_CompileRandomBrickwork(benchmark::State& state) {
  Rng rng(2);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  const qdmi::ModelBackedDevice qdmi_device(device, clock);
  const auto circuit = circuit::Circuit::random(
      static_cast<int>(state.range(0)), 8, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mqss::compile(circuit, qdmi_device));
  }
}
BENCHMARK(BM_CompileRandomBrickwork)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_EndToEndSubmitHpcPath(benchmark::State& state) {
  Rng rng(3);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi_device(device, clock);
  mqss::QpuService service(device, qdmi_device, rng);
  mqss::Client client(service, clock, mqss::AccessPath::kHpc);
  const auto circuit = circuit::Circuit::ghz(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        client.wait(client.submit(circuit, 200, "bench")));
  }
}
BENCHMARK(BM_EndToEndSubmitHpcPath)->Unit(benchmark::kMicrosecond);

// Phase 1 of two-phase compilation: the full pass pipeline (placement,
// routing, native decomposition, 1q fusion) with parameters kept symbolic.
// This is what a cache miss costs.
void BM_StructureCompileCold(benchmark::State& state) {
  Rng rng(4);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  const qdmi::ModelBackedDevice qdmi_device(device, clock);
  const auto ansatz = vqe_ansatz(static_cast<int>(state.range(0)), 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mqss::compile_template(ansatz, qdmi_device));
  }
  state.counters["slots"] = static_cast<double>(
      mqss::compile_template(ansatz, qdmi_device).slots.size());
}
BENCHMARK(BM_StructureCompileCold)->Arg(5)->Arg(10)
    ->Unit(benchmark::kMicrosecond);

// Phase 2: patching a fresh binding into the cached structure. This is what
// every optimizer iteration after the first costs — the ISSUE acceptance bar
// is >= 10x cheaper than BM_StructureCompileCold at the same width.
void BM_BindPhase(benchmark::State& state) {
  Rng rng(4);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  const qdmi::ModelBackedDevice qdmi_device(device, clock);
  const auto ansatz = vqe_ansatz(static_cast<int>(state.range(0)), 2);
  const auto tmpl = mqss::compile_template(ansatz, qdmi_device);
  const auto binding = binding_for(ansatz, 0.37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tmpl.bind(binding));
  }
  state.counters["slots"] = static_cast<double>(tmpl.slots.size());
}
BENCHMARK(BM_BindPhase)->Arg(5)->Arg(10)->Unit(benchmark::kMicrosecond);

// The hybrid tight loop through the serving stack: one structure miss, then
// every iteration binds from the structure cache. Exports the hit rate so CI
// can assert the cache is actually engaged.
void BM_ParametricSweepWarmCache(benchmark::State& state) {
  Rng rng(4);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi_device(device, clock);
  mqss::QpuService service(device, qdmi_device, rng);
  const auto ansatz = vqe_ansatz(6, 2);
  double base = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        service.compile_parametric(ansatz, binding_for(ansatz, base)));
    base += 0.011;
  }
  const auto stats = service.cache_stats();
  state.counters["structure_cache_hit_rate"] = stats.hit_rate();
  state.counters["structure_cache_hits"] =
      static_cast<double>(stats.hits);
  state.counters["structure_cache_misses"] =
      static_cast<double>(stats.misses);
}
BENCHMARK(BM_ParametricSweepWarmCache)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return hpcqc::bench::run_with_json(argc, argv,
                                     "BENCH_fig2_mqss_stack.json");
}
