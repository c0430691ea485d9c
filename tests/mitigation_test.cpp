#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mitigation/readout_mitigation.hpp"
#include "hpcqc/mitigation/zne.hpp"

namespace hpcqc::mitigation {
namespace {

/// Largest amplitude difference between two states once `b`'s global phase
/// is aligned to `a`'s: inverse() may realize a gate's adjoint only up to
/// a global phase (SX† as RX(-pi/2)).
double phase_aligned_distance(const qsim::StateVector& a,
                              const qsim::StateVector& b) {
  const auto& x = a.amplitudes();
  const auto& y = b.amplitudes();
  std::size_t k = 0;
  for (std::size_t i = 1; i < x.size(); ++i)
    if (std::abs(x[i]) > std::abs(x[k])) k = i;
  const qsim::Complex phase = y[k] / x[k] / std::abs(y[k] / x[k]);
  double worst = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i)
    worst = std::max(worst, std::abs(x[i] * phase - y[i]));
  return worst;
}

TEST(CircuitInverse, UndoesItself) {
  Rng rng(1);
  for (int seed = 0; seed < 5; ++seed) {
    Rng circuit_rng(static_cast<std::uint64_t>(seed) + 11);
    circuit::Circuit body(4);
    // Random gates without measurement.
    const auto random = circuit::Circuit::random(4, 3, circuit_rng);
    for (const auto& op : random.ops())
      if (op.kind != circuit::OpKind::kMeasure) body.append(op);

    qsim::StateVector state(4);
    circuit::apply_gates(state, body);
    circuit::apply_gates(state, body.inverse());
    qsim::StateVector fresh(4);
    EXPECT_NEAR(phase_aligned_distance(fresh, state), 0.0, 1e-10)
        << "seed " << seed;
  }
}

TEST(CircuitInverse, EveryGateKindInverts) {
  circuit::Circuit body(3);
  body.x(0).y(1).z(2).h(0).s(1).sdg(2).t(0).tdg(1).sx(2);
  body.rx(0.3, 0).ry(-0.7, 1).rz(1.1, 2).u(0.4, 0.5, 0.6, 0);
  body.prx(0.9, 0.2, 1).cz(0, 1).cx(1, 2).swap(0, 2).iswap(1, 2);
  body.cphase(0.8, 0, 1);
  qsim::StateVector state(3);
  // Start from a non-trivial state so phases matter.
  state.apply_1q(qsim::gate_h(), 0);
  state.apply_1q(qsim::gate_rx(0.4), 1);
  qsim::StateVector reference = state;
  circuit::apply_gates(state, body);
  circuit::apply_gates(state, body.inverse());
  EXPECT_NEAR(phase_aligned_distance(reference, state), 0.0, 1e-10);
}

TEST(CircuitInverse, RejectsMeasurement) {
  circuit::Circuit measured(2);
  measured.h(0).measure();
  EXPECT_THROW(measured.inverse(), PreconditionError);
}

TEST(CircuitFolding, PreservesSemanticsAndScalesDepth) {
  Rng rng(2);
  const auto circuit = circuit::Circuit::ghz(4);
  for (int scale : {1, 3, 5}) {
    const auto folded = circuit.folded(scale);
    // Same measured distribution.
    const auto original = circuit::ideal_distribution(circuit);
    const auto after = circuit::ideal_distribution(folded);
    for (std::size_t i = 0; i < original.size(); ++i)
      EXPECT_NEAR(original[i], after[i], 1e-9);
    // Gate count scaled by the fold factor.
    EXPECT_GE(folded.gate_count(),
              static_cast<std::size_t>(scale) * circuit.gate_count());
  }
  EXPECT_THROW(circuit.folded(2), PreconditionError);
  EXPECT_THROW(circuit.folded(0), PreconditionError);
}

TEST(ReadoutMitigator, RecoversExactDistribution) {
  // Known confusion, analytic corruption: mitigation must invert exactly.
  const double a = 0.08;  // P(read 1 | 0)
  const double b = 0.12;  // P(read 0 | 1)
  // True state: |1> with probability 1.
  // Measured: P(1) = 1-b, P(0) = b.
  qsim::Counts counts;
  counts.set_num_qubits(1);
  counts.add(0, static_cast<std::uint64_t>(b * 1e6));
  counts.add(1, static_cast<std::uint64_t>((1.0 - b) * 1e6));
  const ReadoutMitigator mitigator({{a, b}});
  const auto quasi = mitigator.mitigate(counts);
  EXPECT_NEAR(quasi[0], 0.0, 1e-9);
  EXPECT_NEAR(quasi[1], 1.0, 1e-9);
}

TEST(ReadoutMitigator, QuasiProbabilitiesSumToOne) {
  qsim::Counts counts;
  counts.set_num_qubits(3);
  counts.add(0b000, 500);
  counts.add(0b111, 420);
  counts.add(0b001, 40);
  counts.add(0b110, 40);
  const ReadoutMitigator mitigator(
      {{0.02, 0.05}, {0.03, 0.04}, {0.01, 0.06}});
  const auto quasi = mitigator.mitigate(counts);
  double sum = 0.0;
  for (double q : quasi) sum += q;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(ReadoutMitigator, CalibrateAgainstDeviceImprovesGhzExpectation) {
  Rng rng(3);
  device::DeviceModel device = device::make_iqm20(rng);
  // Use a noiseless-gates circuit so readout is the only error: prepare
  // |1111> on chain qubits and measure <ZZZZ> (exact value +1).
  const auto chain = device.topology().coupled_chain();
  const std::vector<int> qubits(chain.begin(), chain.begin() + 4);
  circuit::Circuit prep(device.num_qubits());
  for (int q : qubits) prep.x(q);
  prep.measure(qubits);

  const auto mitigator =
      ReadoutMitigator::calibrate(device, qubits, 60000, rng);
  const auto result = device.execute(
      prep, 60000, rng, device::ExecutionMode::kGlobalDepolarizing);

  const std::uint64_t mask = 0b1111;
  const double raw = result.counts.expectation_z(mask);
  const double mitigated =
      mitigator.mitigated_expectation_z(result.counts, mask);
  // Gates contribute a little depolarizing error too, so compare to the
  // device's own estimate rather than exactly 1.
  EXPECT_LT(raw, 0.95);           // readout error clearly visible
  EXPECT_GT(mitigated, raw);      // mitigation helps
  EXPECT_NEAR(mitigated, 1.0, 0.05);
}

TEST(ReadoutMitigator, Validation) {
  EXPECT_THROW(ReadoutMitigator({}), PreconditionError);
  EXPECT_THROW(ReadoutMitigator({{0.6, 0.1}}), PreconditionError);
  qsim::Counts wrong;
  wrong.set_num_qubits(2);
  wrong.add(0, 10);
  const ReadoutMitigator mitigator({{0.01, 0.01}});
  EXPECT_THROW(mitigator.mitigate(wrong), PreconditionError);
}

TEST(ReadoutMitigator, RejectsSingularConfusionMatrices) {
  // At p01 + p10 = 1 the per-qubit confusion matrix is singular and the
  // correction is undefined; the constructor draws the line at 0.5 per
  // error so the matrix always stays invertible.
  EXPECT_THROW(ReadoutMitigator({{0.5, 0.5}}), PreconditionError);
  EXPECT_THROW(ReadoutMitigator({{0.5, 0.0}}), PreconditionError);
  EXPECT_THROW(ReadoutMitigator({{0.0, 0.5}}), PreconditionError);
  EXPECT_THROW(ReadoutMitigator({{0.01, 0.01}, {0.7, 0.2}}),
               PreconditionError);
}

TEST(ReadoutMitigator, NearSingularConfusionStaysFiniteAndNormalized) {
  // Just inside the validity region (det = 1 - a - b = 0.02) the inverse
  // amplifies noise by ~1/det but must stay finite, and the mitigated
  // quasi-probabilities must still sum to one exactly.
  const ReadoutMitigator mitigator({{0.49, 0.49}, {0.49, 0.49}});
  qsim::Counts counts;
  counts.set_num_qubits(2);
  counts.add(0b00, 520);
  counts.add(0b01, 480);
  counts.add(0b10, 510);
  counts.add(0b11, 490);
  const auto quasi = mitigator.mitigate(counts);
  ASSERT_EQ(quasi.size(), 4u);
  double sum = 0.0;
  for (const double q : quasi) {
    EXPECT_TRUE(std::isfinite(q));
    // Amplification is bounded by (1/det)^2 per bit pair.
    EXPECT_LT(std::abs(q), 1.0 / (0.02 * 0.02));
    sum += q;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zne, ExtrapolationMethodsOnSyntheticDecay) {
  // v(s) = 0.9 * exp(-0.1 s): zero-noise value 0.9.
  const std::vector<int> scales{1, 3, 5};
  std::vector<double> values;
  for (int s : scales) values.push_back(0.9 * std::exp(-0.1 * s));
  EXPECT_NEAR(ZeroNoiseExtrapolator::extrapolate(
                  scales, values, ExtrapolationMethod::kExponential),
              0.9, 1e-9);
  // Linear underestimates slightly on convex decay but lands close.
  EXPECT_NEAR(ZeroNoiseExtrapolator::extrapolate(
                  scales, values, ExtrapolationMethod::kLinear),
              0.9, 0.03);
  // Richardson is exact for polynomial data.
  std::vector<double> linear_values;
  for (int s : scales) linear_values.push_back(1.0 - 0.05 * s);
  EXPECT_NEAR(ZeroNoiseExtrapolator::extrapolate(
                  scales, linear_values, ExtrapolationMethod::kRichardson),
              1.0, 1e-12);
}

TEST(Zne, ImprovesGhzParityOnNoisyDevice) {
  Rng rng(4);
  device::DeviceModel device = device::make_iqm20(rng);
  // Make gate errors dominate so folding has signal.
  device.drift(days(5.0), rng);

  const auto chain = device.topology().coupled_chain();
  const std::vector<int> qubits(chain.begin(), chain.begin() + 4);
  circuit::Circuit prep(device.num_qubits());
  for (int q : qubits) prep.x(q);
  // Add some gate content whose errors ZNE can extrapolate away.
  for (int rep = 0; rep < 3; ++rep)
    for (std::size_t i = 0; i + 1 < qubits.size(); ++i)
      prep.cz(qubits[i], qubits[i + 1]);
  prep.measure(qubits);

  const std::uint64_t mask = 0b1111;
  const auto expectation = [&](const circuit::Circuit& circuit) {
    // Average several executions to tame shot noise.
    double acc = 0.0;
    for (int rep = 0; rep < 4; ++rep)
      acc += device
                 .execute(circuit, 20000, rng,
                          device::ExecutionMode::kGlobalDepolarizing)
                 .counts.expectation_z(mask);
    return acc / 4.0;
  };

  const double raw = expectation(prep);
  ZeroNoiseExtrapolator::Options options;
  options.method = ExtrapolationMethod::kExponential;
  const ZeroNoiseExtrapolator zne(options);
  const auto result = zne.run(prep, expectation);

  // Deeper foldings must be noisier (monotone decay in magnitude).
  EXPECT_GT(std::abs(result.measured[0]), std::abs(result.measured[1]));
  EXPECT_GT(std::abs(result.measured[1]), std::abs(result.measured[2]));
  // The extrapolated value beats the raw measurement (true value ~= the
  // readout-limited ceiling; gate error is what ZNE removes).
  EXPECT_GT(result.mitigated, raw);
}

TEST(Zne, OptionValidation) {
  ZeroNoiseExtrapolator::Options bad;
  bad.scales = {1};
  EXPECT_THROW(ZeroNoiseExtrapolator{bad}, PreconditionError);
  bad.scales = {1, 2};
  EXPECT_THROW(ZeroNoiseExtrapolator{bad}, PreconditionError);
  bad.scales = {3, 1};
  EXPECT_THROW(ZeroNoiseExtrapolator{bad}, PreconditionError);
}

}  // namespace
}  // namespace hpcqc::mitigation
