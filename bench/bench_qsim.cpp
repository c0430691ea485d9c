// State-vector simulator throughput — the substrate that stands in for the
// physical QPU. Not a paper table; this bench characterizes the digital
// twin so that the per-table harnesses' runtimes are interpretable, and
// exercises the OpenMP gate kernels across state sizes.

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <algorithm>
#include <iostream>
#include <vector>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace {

using namespace hpcqc;

void print_reproduction() {
  std::cout << "=== Digital-twin (state-vector) substrate throughput ===\n"
            << "20-qubit register = 2^20 complex amplitudes = 16 MiB.\n\n";
}

void BM_Apply1q(benchmark::State& state) {
  qsim::StateVector sv(static_cast<int>(state.range(0)));
  const auto gate = qsim::gate_prx(0.7, 0.3);
  int qubit = 0;
  for (auto _ : state) {
    sv.apply_1q(gate, qubit);
    qubit = (qubit + 1) % sv.num_qubits();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sv.dimension()));
}
// 6-12 qubits is the variational loop's shape: cache-resident states that
// run below kParallelThreshold, where per-call overhead shows per amplitude.
BENCHMARK(BM_Apply1q)->Arg(6)->Arg(8)->Arg(10)->Arg(12)->Arg(16)->Arg(20)
    ->Arg(24);

void BM_Apply2q(benchmark::State& state) {
  qsim::StateVector sv(static_cast<int>(state.range(0)));
  const auto gate = qsim::gate_cx();
  int qubit = 0;
  for (auto _ : state) {
    sv.apply_2q(gate, qubit, (qubit + 1) % sv.num_qubits());
    qubit = (qubit + 1) % sv.num_qubits();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(sv.dimension()));
}
BENCHMARK(BM_Apply2q)->Arg(10)->Arg(16)->Arg(20);

void BM_CphaseFastPath(benchmark::State& state) {
  qsim::StateVector sv(20);
  for (auto _ : state) {
    sv.apply_cphase(0.5, 3, 11);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_CphaseFastPath);

void BM_GhzStatePreparation(benchmark::State& state) {
  const auto circuit =
      circuit::Circuit::ghz(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    qsim::StateVector sv(circuit.num_qubits());
    circuit::apply_gates(sv, circuit);
    benchmark::DoNotOptimize(sv.amplitudes().data());
  }
}
BENCHMARK(BM_GhzStatePreparation)->Arg(10)->Arg(16)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_Sampling(benchmark::State& state) {
  Rng rng(1);
  qsim::StateVector sv(16);
  const auto circuit = circuit::Circuit::ghz(16);
  circuit::apply_gates(sv, circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sv.sample(static_cast<std::size_t>(state.range(0)), rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sampling)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_NoisyExecutionTrajectory(benchmark::State& state) {
  Rng rng(2);
  device::DeviceModel device = device::make_iqm20(rng);
  const auto chain = device.topology().coupled_chain();
  circuit::Circuit ghz(20);
  ghz.h(chain[0]);
  std::vector<int> measured{chain[0]};
  for (int i = 1; i < 8; ++i) {
    ghz.cx(chain[i - 1], chain[i]);
    measured.push_back(chain[i]);
  }
  ghz.measure(measured);
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.execute(
        ghz, 100, rng, device::ExecutionMode::kTrajectory));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_NoisyExecutionTrajectory)->Unit(benchmark::kMillisecond);

// The headline trajectory workload: 20 layers of PRX + CZ along the first
// `width` qubits of the coupled chain, 256 shots; the shot loop dominates.
// Width 20 is the configuration the parallel trajectory engine is sized
// for, width 8 the variational loop's cache-resident shape, and width 16 a
// variant small enough for a CI smoke.
void BM_TrajectoryExecute(benchmark::State& state) {
  Rng rng(4);
  device::DeviceModel device = device::make_iqm20(rng);
  const auto chain = device.topology().coupled_chain();
  const int n = std::min(static_cast<int>(state.range(0)),
                         static_cast<int>(chain.size()));
  circuit::Circuit c(20);
  for (int layer = 0; layer < 20; ++layer) {
    for (int i = 0; i < n; ++i)
      c.prx(0.3 + 0.01 * layer, 0.1 * i, chain[static_cast<std::size_t>(i)]);
    for (int i = layer % 2; i + 1 < n; i += 2)
      c.cz(chain[static_cast<std::size_t>(i)],
           chain[static_cast<std::size_t>(i + 1)]);
  }
  c.measure(std::vector<int>(chain.begin(), chain.begin() + n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.execute(
        c, 256, rng, device::ExecutionMode::kTrajectory));
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_TrajectoryExecute)->Arg(8)->Arg(16)->Arg(20)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime()->UseRealTime();

// Sampling cost per shot batch on a 20-qubit state. Arg(1) exercises the
// single-shot path used once per trajectory (previously an O(2^n) CDF
// allocation per call), larger args the batched CDF path.
void BM_SampleShots(benchmark::State& state) {
  Rng rng(5);
  qsim::StateVector sv(20);
  const auto circuit = circuit::Circuit::ghz(20);
  circuit::apply_gates(sv, circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sv.sample(static_cast<std::size_t>(state.range(0)), rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SampleShots)->Arg(1)->Arg(256)->Unit(benchmark::kMicrosecond);

void BM_NoisyExecutionGlobalDepolarizing(benchmark::State& state) {
  Rng rng(3);
  device::DeviceModel device = device::make_iqm20(rng);
  const auto chain = device.topology().coupled_chain();
  circuit::Circuit ghz(20);
  ghz.h(chain[0]);
  for (std::size_t i = 1; i < chain.size(); ++i)
    ghz.cx(chain[i - 1], chain[i]);
  ghz.measure();
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.execute(
        ghz, 2000, rng, device::ExecutionMode::kGlobalDepolarizing));
  }
  state.SetItemsProcessed(state.iterations() * 2000);
}
BENCHMARK(BM_NoisyExecutionGlobalDepolarizing)
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return hpcqc::bench::run_with_json(argc, argv, "BENCH_qsim.json");
}
