// Tests for the compiled, shot-parallel trajectory engine: determinism
// under any OpenMP thread count, equivalence of the fused/compiled path
// with the uncompiled gate-by-gate evolution, the single-pass sampler,
// and the Counts running-total cache.

#include <gtest/gtest.h>

#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/device/compiled_program.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/qsim/counts.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace {

using namespace hpcqc;
using device::CompiledOp;
using device::CompiledProgram;
using device::DeviceModel;
using device::ExecutionMode;

// A layered workload along the first `width` qubits of the coupled chain:
// PRX on every qubit, CZ on alternating neighbour pairs. Only the touched
// qubits are measured, so the engine simulates a `width`-qubit dense state.
circuit::Circuit chain_workload(const DeviceModel& device, int layers,
                                int width) {
  const auto chain = device.topology().coupled_chain();
  const int n = std::min(width, static_cast<int>(chain.size()));
  circuit::Circuit c(device.num_qubits());
  std::vector<int> touched;
  for (int i = 0; i < n; ++i) touched.push_back(chain[static_cast<std::size_t>(i)]);
  for (int layer = 0; layer < layers; ++layer) {
    for (int i = 0; i < n; ++i)
      c.prx(0.3 + 0.01 * layer, 0.1 * i, chain[static_cast<std::size_t>(i)]);
    for (int i = layer % 2; i + 1 < n; i += 2)
      c.cz(chain[static_cast<std::size_t>(i)],
           chain[static_cast<std::size_t>(i + 1)]);
  }
  c.measure(touched);
  return c;
}

TEST(TrajectoryEngine, CountsAreIdenticalForAnyThreadCount) {
  const auto run_with_threads = [](int threads) {
#ifdef _OPENMP
    omp_set_num_threads(threads);
#else
    (void)threads;
#endif
    Rng device_rng(7);
    DeviceModel device = device::make_iqm20(device_rng);
    const auto c = chain_workload(device, 4, 10);
    Rng rng(42);
    return device.execute(c, 96, rng, ExecutionMode::kTrajectory).counts;
  };
  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
#ifdef _OPENMP
  omp_set_num_threads(omp_get_num_procs());
#endif
  EXPECT_EQ(serial.total_shots(), 96u);
  EXPECT_EQ(serial.raw(), parallel.raw());
}

TEST(TrajectoryEngine, LayeredChainCountsArePinned) {
  // Exact histograms of an 8-layer chain job at the variational loop's
  // widths, whose gate kernels take the serial path. Any change to
  // per-amplitude arithmetic, error draws or sampling moves them.
  using Histogram = std::map<std::uint64_t, std::uint64_t>;
  const Histogram width6{
      {0, 4},   {1, 1},   {2, 8},   {3, 1},   {4, 2},   {5, 12},  {6, 1},
      {7, 1},   {8, 1},   {9, 2},   {10, 4},  {16, 8},  {17, 2},  {18, 17},
      {19, 2},  {21, 36}, {23, 1},  {25, 1},  {26, 1},  {29, 2},  {32, 2},
      {33, 11}, {34, 4},  {35, 1},  {36, 2},  {37, 32}, {39, 1},  {40, 12},
      {41, 27}, {42, 43}, {43, 2},  {44, 1},  {45, 1},  {48, 1},  {49, 1},
      {50, 1},  {53, 5},  {56, 1},  {58, 1}};
  const Histogram width8{
      {1, 3},    {2, 3},    {4, 1},    {5, 2},    {8, 2},    {9, 1},
      {10, 4},   {16, 2},   {17, 1},   {21, 9},   {23, 2},   {26, 1},
      {40, 1},   {42, 1},   {46, 1},   {60, 1},   {65, 3},   {66, 4},
      {69, 1},   {72, 1},   {73, 3},   {74, 5},   {75, 2},   {77, 1},
      {80, 5},   {81, 1},   {82, 5},   {84, 1},   {85, 24},  {87, 1},
      {98, 1},   {117, 2},  {128, 2},  {129, 1},  {130, 1},  {131, 1},
      {132, 1},  {133, 10}, {137, 4},  {138, 4},  {141, 1},  {144, 3},
      {145, 1},  {146, 10}, {147, 1},  {149, 22}, {150, 1},  {153, 1},
      {154, 1},  {161, 5},  {163, 1},  {165, 21}, {168, 14}, {169, 12},
      {170, 23}, {173, 1},  {174, 1},  {177, 1},  {178, 1},  {181, 2},
      {185, 3},  {186, 1},  {193, 1},  {197, 1},  {208, 1},  {210, 1},
      {213, 1},  {225, 1},  {229, 2},  {234, 2}};
  for (const auto& [width, expected] :
       {std::pair{6, width6}, std::pair{8, width8}}) {
    Rng device_rng(7);
    DeviceModel device = device::make_iqm20(device_rng);
    const auto c = chain_workload(device, 8, width);
    Rng rng(42);
    const auto counts =
        device.execute(c, 256, rng, ExecutionMode::kTrajectory).counts;
    EXPECT_EQ(counts.total_shots(), 256u);
    EXPECT_EQ(counts.raw(), expected) << "width " << width;
  }
}

TEST(TrajectoryEngine, CallerStreamAdvancesIdenticallyForAnyThreadCount) {
  // The trajectory path must consume exactly one draw from the caller's
  // generator regardless of shots or threads — schedulers interleaving
  // jobs rely on a reproducible stream.
  Rng device_rng(7);
  DeviceModel device = device::make_iqm20(device_rng);
  const auto c = chain_workload(device, 2, 8);
  Rng a(5);
  Rng b(5);
  (void)device.execute(c, 17, a, ExecutionMode::kTrajectory);
  (void)b();
  EXPECT_EQ(a(), b());
}

TEST(CompiledProgram, FusedIdealStateMatchesUncompiledEvolution) {
  // A circuit with long single-qubit runs interleaved with entanglers:
  // the fused program must produce the same state as gate-by-gate
  // application (up to rounding). Built along the coupled chain so the
  // two-qubit gates respect the topology; the reference circuit uses the
  // dense indices (ascending physical order) the program compiles to.
  Rng rng(3);
  DeviceModel device = device::make_iqm20(rng);
  const auto chain = device.topology().coupled_chain();
  const int a = chain[0];
  const int b = chain[1];
  const int c3 = chain[2];
  std::vector<int> sorted{a, b, c3};
  std::sort(sorted.begin(), sorted.end());
  const auto dense = [&](int q) {
    return static_cast<int>(std::find(sorted.begin(), sorted.end(), q) -
                            sorted.begin());
  };

  circuit::Circuit phys(20);
  phys.h(a).t(a).s(a).x(b).ry(0.3, b).cx(a, b);
  phys.rz(0.7, a).sdg(c3).h(c3).cz(b, c3).prx(0.4, 1.1, c3).tdg(b).h(b);
  phys.measure({a, b, c3});

  circuit::Circuit ref(3);
  ref.h(dense(a)).t(dense(a)).s(dense(a)).x(dense(b)).ry(0.3, dense(b));
  ref.cx(dense(a), dense(b));
  ref.rz(0.7, dense(a)).sdg(dense(c3)).h(dense(c3));
  ref.cz(dense(b), dense(c3)).prx(0.4, 1.1, dense(c3));
  ref.tdg(dense(b)).h(dense(b));

  CompiledProgram program(phys, device.topology(), device.calibration());
  ASSERT_EQ(program.dense_qubits(), 3);

  qsim::StateVector fused(3);
  program.run_ideal(fused);
  qsim::StateVector plain(3);
  circuit::apply_gates(plain, ref);
  for (std::uint64_t i = 0; i < fused.dimension(); ++i)
    EXPECT_NEAR(std::abs(fused.amplitude(i) - plain.amplitude(i)), 0.0, 1e-10)
        << "amplitude " << i;
}

TEST(CompiledProgram, FusesSingleQubitRunsAndPrecomputesErrors) {
  Rng rng(3);
  DeviceModel device = device::make_iqm20(rng);
  const auto chain = device.topology().coupled_chain();
  const int a = chain[0];
  const int b = chain[1];
  circuit::Circuit c(20);
  c.h(a).t(a).s(a).h(b).cz(a, b).h(a).measure({a, b});
  CompiledProgram program(c, device.topology(), device.calibration());
  // h t s on qubit a fuse to one op; h on b one op; cz; trailing h on a.
  ASSERT_EQ(program.ops().size(), 4u);
  int fused_1q = 0;
  for (const auto& op : program.ops()) {
    EXPECT_GE(op.error_prob, 0.0);
    EXPECT_LT(op.error_prob, 0.1);  // fresh calibration: small error rates
    if (op.kind == CompiledOp::Kind::kFused1q) ++fused_1q;
  }
  EXPECT_EQ(fused_1q, 3);
  // The fused 3-gate run carries a composed (non-zero) error probability.
  EXPECT_GT(program.ops()[0].error_prob, 0.0);
}

TEST(TrajectoryEngine, CompiledTrajectoryMatchesIdealDistributionStatistically) {
  // On a fresh, low-error device the trajectory histogram must stay close
  // to the ideal distribution: TVD within noise-floor + sampling slack.
  Rng device_rng(11);
  DeviceModel device = device::make_iqm20(device_rng);
  const auto chain = device.topology().coupled_chain();
  circuit::Circuit ghz(20);
  ghz.h(chain[0]);
  std::vector<int> measured{chain[0]};
  for (int i = 1; i < 5; ++i) {
    ghz.cx(chain[static_cast<std::size_t>(i - 1)],
           chain[static_cast<std::size_t>(i)]);
    measured.push_back(chain[static_cast<std::size_t>(i)]);
  }
  ghz.measure(measured);

  Rng rng(13);
  const auto result = device.execute(ghz, 4000, rng, ExecutionMode::kTrajectory);
  ASSERT_EQ(result.counts.total_shots(), 4000u);
  // Ideal: 50/50 on |00000> and |11111>.
  std::vector<double> ideal(32, 0.0);
  ideal[0] = 0.5;
  ideal[31] = 0.5;
  EXPECT_LT(result.counts.total_variation_distance(ideal), 0.15);
  const double p_ends = result.counts.probability_of(0) +
                        result.counts.probability_of(31);
  EXPECT_GT(p_ends, 0.75);
}

TEST(StateVectorSampler, SampleOneIsDeterministicOnBasisState) {
  qsim::StateVector sv(4);
  Rng rng(1);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(sv.sample_one(rng), 0u);
}

TEST(StateVectorSampler, SampleOneMatchesDistribution) {
  qsim::StateVector sv(3);
  circuit::Circuit bell(3);
  bell.h(0).cx(0, 1);
  circuit::apply_gates(sv, bell);
  Rng rng(17);
  std::size_t zeros = 0;
  std::size_t threes = 0;
  constexpr std::size_t kShots = 20000;
  for (std::size_t s = 0; s < kShots; ++s) {
    const std::uint64_t outcome = sv.sample_one(rng);
    ASSERT_TRUE(outcome == 0 || outcome == 3);
    if (outcome == 0) ++zeros;
    else ++threes;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / kShots, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(threes) / kShots, 0.5, 0.02);
}

TEST(StateVectorSampler, BatchedSampleOfOneUsesSinglePassPath) {
  qsim::StateVector sv(5);
  circuit::Circuit c(5);
  c.h(0).h(1);
  circuit::apply_gates(sv, c);
  Rng rng(23);
  const auto batch = sv.sample(1, rng);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_LT(batch[0], 4u);  // only qubits 0,1 in superposition
}

TEST(CountsCache, RunningTotalAndMerge) {
  qsim::Counts a;
  a.set_num_qubits(2);
  a.add(0, 3);
  a.add(1);
  EXPECT_EQ(a.total_shots(), 4u);
  qsim::Counts b;
  b.add(1, 2);
  b.add(3, 5);
  a.merge(b);
  EXPECT_EQ(a.total_shots(), 11u);
  EXPECT_EQ(a.count_of(1), 3u);
  EXPECT_EQ(a.count_of(3), 5u);
  EXPECT_NEAR(a.probability_of(0), 3.0 / 11.0, 1e-12);
}

}  // namespace
