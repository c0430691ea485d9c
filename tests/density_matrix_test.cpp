#include <gtest/gtest.h>

#include <cmath>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/density_matrix.hpp"

namespace hpcqc::qsim {
namespace {

TEST(DensityMatrix, StartsPureInGroundState) {
  DensityMatrix rho(2);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.element(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(rho.probabilities()[0], 1.0, 1e-12);
  EXPECT_THROW(DensityMatrix(11), PreconditionError);
}

TEST(DensityMatrix, UnitaryEvolutionMatchesStateVector) {
  Rng rng(1);
  StateVector psi(3);
  DensityMatrix rho(3);
  for (int step = 0; step < 20; ++step) {
    const int q0 = static_cast<int>(rng.uniform_index(3));
    if (rng.bernoulli(0.6)) {
      const auto u = gate_prx(rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28));
      psi.apply_1q(u, q0);
      rho.apply_1q(u, q0);
    } else {
      int q1 = static_cast<int>(rng.uniform_index(3));
      if (q1 == q0) q1 = (q1 + 1) % 3;
      const auto u = gate_cphase(rng.uniform(0.0, 6.28));
      psi.apply_2q(u, q0, q1);
      rho.apply_2q(u, q0, q1);
    }
  }
  EXPECT_NEAR(rho.trace(), 1.0, 1e-10);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-10);
  EXPECT_NEAR(rho.fidelity(psi), 1.0, 1e-10);
  const auto probs_psi = psi.probabilities();
  const auto probs_rho = rho.probabilities();
  for (std::size_t i = 0; i < probs_psi.size(); ++i)
    EXPECT_NEAR(probs_psi[i], probs_rho[i], 1e-10);
}

TEST(DensityMatrix, FromStateMatchesProjector) {
  StateVector psi(2);
  psi.apply_1q(gate_h(), 0);
  psi.apply_2q(gate_cx(), 0, 1);
  const auto rho = DensityMatrix::from_state(psi);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
  EXPECT_NEAR(rho.fidelity(psi), 1.0, 1e-12);
  EXPECT_NEAR(rho.element(0, 3).real(), 0.5, 1e-12);  // Bell coherence
  EXPECT_NEAR(rho.expectation_z(0b11), 1.0, 1e-12);
}

TEST(DensityMatrix, DepolarizingReducesPurityPreservesTrace) {
  DensityMatrix rho(1);
  rho.apply_1q(gate_h(), 0);
  rho.apply_depolarizing(0, 0.3);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), 1.0);
  // Fully depolarizing with p = 3/4 gives the maximally mixed state.
  DensityMatrix mixed(1);
  mixed.apply_1q(gate_h(), 0);
  mixed.apply_depolarizing(0, 0.75);
  EXPECT_NEAR(mixed.purity(), 0.5, 1e-12);
  EXPECT_NEAR(mixed.element(0, 0).real(), 0.5, 1e-12);
}

TEST(DensityMatrix, Depolarizing2qPreservesTraceAndIsIdentityAtZero) {
  DensityMatrix rho(2);
  rho.apply_1q(gate_h(), 0);
  rho.apply_2q(gate_cx(), 0, 1);
  const auto before = rho.probabilities();
  const auto coherence = rho.element(0, 3);
  rho.apply_depolarizing_2q(0, 1, 0.0);
  const auto after = rho.probabilities();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_NEAR(after[i], before[i], 1e-12);
  EXPECT_NEAR(std::abs(rho.element(0, 3) - coherence), 0.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);

  rho.apply_depolarizing_2q(0, 1, 0.3);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
  EXPECT_LT(rho.purity(), 1.0);
}

TEST(DensityMatrix, Depolarizing2qFullStrengthOnGroundState) {
  // p = 1: uniformly one of the 15 non-identity two-qubit Paulis. On
  // |00><00| the Paulis whose both factors are diagonal (I/Z on each
  // qubit, minus the identity itself: 3 of 15) leave the outcome at 00;
  // each bit-flip pattern collects 4 of the 16 I/X/Y/Z combinations.
  DensityMatrix rho(2);
  rho.apply_depolarizing_2q(0, 1, 1.0);
  const auto probs = rho.probabilities();
  EXPECT_NEAR(probs[0], 3.0 / 15.0, 1e-12);
  EXPECT_NEAR(probs[1], 4.0 / 15.0, 1e-12);
  EXPECT_NEAR(probs[2], 4.0 / 15.0, 1e-12);
  EXPECT_NEAR(probs[3], 4.0 / 15.0, 1e-12);
  EXPECT_NEAR(rho.trace(), 1.0, 1e-12);
}

TEST(DensityMatrix, KrausSetMustBeTracePreservingToKeepTrace) {
  // A deliberately non-trace-preserving set shows up in the trace.
  DensityMatrix rho(1);
  Matrix2 half = gate_i();
  for (auto& entry : half) entry *= 0.5;
  const Matrix2 kraus[] = {half};
  rho.apply_kraus_1q(kraus, 0);
  EXPECT_NEAR(rho.trace(), 0.25, 1e-12);
  EXPECT_THROW(rho.apply_kraus_1q({}, 0), PreconditionError);
}

TEST(DensityMatrix, GhzCircuitViaOps) {
  DensityMatrix rho(3);
  const auto ghz = circuit::Circuit::ghz(3);
  for (const auto& op : ghz.ops()) {
    if (op.kind == circuit::OpKind::kMeasure) continue;
    if (op.kind == circuit::OpKind::kH) rho.apply_1q(gate_h(), op.qubits[0]);
    if (op.kind == circuit::OpKind::kCx)
      rho.apply_2q(gate_cx(), op.qubits[0], op.qubits[1]);
  }
  const auto probs = rho.probabilities();
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[7], 0.5, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

}  // namespace
}  // namespace hpcqc::qsim
