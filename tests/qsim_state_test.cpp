#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/counts.hpp"
#include "hpcqc/qsim/readout.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::qsim {
namespace {

TEST(StateVector, StartsInGroundState) {
  StateVector state(3);
  EXPECT_EQ(state.dimension(), 8u);
  EXPECT_EQ(state.amplitude(0), (Complex{1.0, 0.0}));
  const auto probs = state.probabilities();
  for (std::uint64_t i = 1; i < state.dimension(); ++i)
    EXPECT_EQ(probs[i], 0.0) << "basis state " << i;
}

TEST(StateVector, RejectsBadQubitCounts) {
  EXPECT_THROW(StateVector(0), PreconditionError);
  EXPECT_THROW(StateVector(29), PreconditionError);
}

TEST(StateVector, XFlipsTargetBit) {
  StateVector state(3);
  state.apply_1q(gate_x(), 1);
  EXPECT_NEAR(std::abs(state.amplitude(0b010)), 1.0, 1e-15);
  // Qubit 1 reads 1 and qubit 0 reads 0 with certainty.
  const auto probs = state.probabilities();
  EXPECT_NEAR(probs[0b010] + probs[0b011] + probs[0b110] + probs[0b111], 1.0,
              1e-15);
  EXPECT_NEAR(probs[0b001] + probs[0b011] + probs[0b101] + probs[0b111], 0.0,
              1e-15);
}

TEST(StateVector, HadamardCreatesSuperposition) {
  StateVector state(1);
  state.apply_1q(gate_h(), 0);
  const auto probs = state.probabilities();
  EXPECT_NEAR(probs[1], 0.5, 1e-12);
  EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-12);
}

TEST(StateVector, BellStateCorrelations) {
  StateVector state(2);
  state.apply_1q(gate_h(), 0);
  state.apply_2q(gate_cx(), 0, 1);
  const auto probs = state.probabilities();
  EXPECT_NEAR(probs[0b00], 0.5, 1e-12);
  EXPECT_NEAR(probs[0b11], 0.5, 1e-12);
  EXPECT_NEAR(probs[0b01], 0.0, 1e-12);
  EXPECT_NEAR(probs[0b10], 0.0, 1e-12);
  // <Z0 Z1> = +1 for a Bell phi+ state, and <Z0> = 0.
  EXPECT_NEAR(probs[0b00] + probs[0b11] - probs[0b01] - probs[0b10], 1.0,
              1e-12);
  EXPECT_NEAR(probs[0b00] + probs[0b10] - probs[0b01] - probs[0b11], 0.0,
              1e-12);
}

TEST(StateVector, CxControlConvention) {
  // Control = first argument. |q0=1> should flip q1.
  StateVector state(2);
  state.apply_1q(gate_x(), 0);
  state.apply_2q(gate_cx(), 0, 1);
  EXPECT_NEAR(std::abs(state.amplitude(0b11)), 1.0, 1e-12);
  // Control = q1 = 0: nothing happens to a fresh state.
  StateVector idle(2);
  idle.apply_2q(gate_cx(), 1, 0);
  EXPECT_NEAR(std::abs(idle.amplitude(0b00)), 1.0, 1e-12);
}

TEST(StateVector, TwoQubitOnNonAdjacentIndices) {
  // Apply CX with control qubit 0 and target qubit 3 of a 4-qubit state.
  StateVector state(4);
  state.apply_1q(gate_x(), 0);
  state.apply_2q(gate_cx(), 0, 3);
  EXPECT_NEAR(std::abs(state.amplitude(0b1001)), 1.0, 1e-12);
}

TEST(StateVector, TwoQubitQubitOrderMatters) {
  // CX(2, 0): control 2, target 0.
  StateVector state(3);
  state.apply_1q(gate_x(), 2);
  state.apply_2q(gate_cx(), 2, 0);
  EXPECT_NEAR(std::abs(state.amplitude(0b101)), 1.0, 1e-12);
}

TEST(StateVector, CphaseFastPathMatchesDenseGate) {
  StateVector fast(3);
  StateVector slow(3);
  for (int q = 0; q < 3; ++q) {
    fast.apply_1q(gate_h(), q);
    slow.apply_1q(gate_h(), q);
  }
  fast.apply_cphase(0.77, 0, 2);
  slow.apply_2q(gate_cphase(0.77), 0, 2);
  for (std::uint64_t i = 0; i < fast.dimension(); ++i)
    EXPECT_NEAR(std::abs(fast.amplitude(i) - slow.amplitude(i)), 0.0, 1e-12)
        << "amplitude " << i;
}

TEST(StateVector, SwapViaUnitary) {
  StateVector state(2);
  state.apply_1q(gate_x(), 0);
  state.apply_2q(gate_swap(), 0, 1);
  EXPECT_NEAR(std::abs(state.amplitude(0b10)), 1.0, 1e-12);
}

class RandomCircuitUnitarity : public ::testing::TestWithParam<int> {};

TEST_P(RandomCircuitUnitarity, NormPreservedUnderRandomGates) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  StateVector state(6);
  for (int step = 0; step < 60; ++step) {
    const int q0 = static_cast<int>(rng.uniform_index(6));
    if (rng.bernoulli(0.5)) {
      state.apply_1q(gate_prx(rng.uniform(0.0, 6.28), rng.uniform(0.0, 6.28)),
                     q0);
    } else {
      int q1 = static_cast<int>(rng.uniform_index(6));
      if (q1 == q0) q1 = (q1 + 1) % 6;
      state.apply_2q(gate_cphase(rng.uniform(0.0, 6.28)), q0, q1);
    }
  }
  double norm2 = 0.0;
  for (const double p : state.probabilities()) norm2 += p;
  EXPECT_NEAR(norm2, 1.0, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuitUnitarity,
                         ::testing::Range(1, 9));

TEST(StateVector, SerialAndParallelSweepsShareOneArithmetic) {
  // The kernels run serially below 2^14 amplitudes and under OpenMP from
  // there on. One seeded gate sequence on qubits 0-12 drives a 13-qubit
  // state down the serial branch and a 14-qubit one, whose qubit 13 stays
  // idle, down the parallel branch: the wide state's bit-13-clear half must
  // equal the narrow state bit for bit, for every kernel.
  StateVector narrow(13);
  StateVector wide(14);
  Rng rng(2024);
  const auto angle = [&rng] { return rng.uniform(0.0, 6.28); };
  for (int step = 0; step < 160; ++step) {
    const int q0 = static_cast<int>(rng.uniform_index(13));
    int q1 = static_cast<int>(rng.uniform_index(12));
    if (q1 >= q0) ++q1;
    switch (step % 4) {
      case 0: {  // apply_1q, general path
        const Matrix2 u = gate_prx(angle(), angle());
        narrow.apply_1q(u, q0);
        wide.apply_1q(u, q0);
        break;
      }
      case 1: {  // apply_1q, diagonal path
        const Matrix2 u = gate_rz(angle());
        narrow.apply_1q(u, q0);
        wide.apply_1q(u, q0);
        break;
      }
      case 2: {  // apply_2q with a dense matrix
        const Matrix4 u = kron(gate_prx(angle(), angle()),
                               gate_prx(angle(), angle()));
        narrow.apply_2q(u, q0, q1);
        wide.apply_2q(u, q0, q1);
        break;
      }
      default: {
        const double theta = angle();
        narrow.apply_cphase(theta, q0, q1);
        wide.apply_cphase(theta, q0, q1);
        break;
      }
    }
  }
  const auto& lo = narrow.amplitudes();
  const auto& hi = wide.amplitudes();
  for (std::uint64_t i = 0; i < narrow.dimension(); ++i) {
    ASSERT_EQ(hi[i], lo[i]) << "amplitude " << i;
    ASSERT_EQ(hi[i + narrow.dimension()], Complex{}) << "amplitude " << i;
  }
  double norm2 = 0.0;
  for (const double p : narrow.probabilities()) norm2 += p;
  EXPECT_NEAR(norm2, 1.0, 1e-10);
}

TEST(StateVector, SamplingMatchesExactDistribution) {
  StateVector state(3);
  state.apply_1q(gate_h(), 0);
  state.apply_1q(gate_rx(1.0), 1);
  state.apply_2q(gate_cx(), 0, 2);
  const auto exact = state.probabilities();
  Rng rng(9);
  const auto samples = state.sample(200000, rng);
  Counts counts(samples, 3);
  EXPECT_LT(counts.total_variation_distance(exact), 0.01);
  EXPECT_GT(counts.hellinger_fidelity(exact), 0.999);
}

TEST(StateVector, PauliErrorProbabilityConversionRoundTrip) {
  for (const double f : {0.9991, 0.995, 0.98, 0.9}) {
    for (const int nq : {1, 2}) {
      const double p = pauli_error_prob_from_avg_fidelity(f, nq);
      // Invert F_pro = 1 - p = ((d+1)·F_avg - 1)/d.
      const double d = nq == 1 ? 2.0 : 4.0;
      EXPECT_NEAR((d * (1.0 - p) + 1.0) / (d + 1.0), f, 1e-12);
      EXPECT_GT(p, 0.0);
      EXPECT_LT(p, 1.0);
    }
  }
  // Perfect gate -> zero error.
  EXPECT_NEAR(pauli_error_prob_from_avg_fidelity(1.0, 1), 0.0, 1e-12);
}

TEST(Counts, BitstringRendering) {
  Counts counts;
  counts.set_num_qubits(4);
  counts.add(0b0011, 5);
  EXPECT_EQ(counts.bitstring(0b0011), "0011");
  EXPECT_EQ(counts.count_of(0b0011), 5u);
  EXPECT_EQ(counts.total_shots(), 5u);
  EXPECT_DOUBLE_EQ(counts.probability_of(0b0011), 1.0);
}

TEST(Counts, TopOutcomesSorted) {
  Counts counts;
  counts.set_num_qubits(2);
  counts.add(0, 10);
  counts.add(3, 30);
  counts.add(1, 20);
  const auto top = counts.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, "11");
  EXPECT_EQ(top[0].second, 30u);
  EXPECT_EQ(top[1].second, 20u);
}

TEST(Counts, ExpectationZ) {
  Counts counts;
  counts.set_num_qubits(1);
  counts.add(0, 75);
  counts.add(1, 25);
  EXPECT_NEAR(counts.expectation_z(1), 0.5, 1e-12);
}

TEST(ReadoutError, AssignmentFidelity) {
  const ReadoutConfusion conf{0.02, 0.04};
  EXPECT_NEAR(conf.assignment_fidelity(), 0.97, 1e-12);
  const auto readout = ReadoutError::uniform(4, 0.02, 0.04);
  EXPECT_NEAR(readout.mean_assignment_fidelity(), 0.97, 1e-12);
}

TEST(ReadoutError, CorruptionRateMatchesConfusion) {
  Rng rng(12);
  const auto readout = ReadoutError::uniform(1, 0.1, 0.3);
  int flips0 = 0;
  int flips1 = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    if (readout.corrupt(0, rng) == 1) ++flips0;
    if (readout.corrupt(1, rng) == 0) ++flips1;
  }
  EXPECT_NEAR(static_cast<double>(flips0) / trials, 0.1, 0.01);
  EXPECT_NEAR(static_cast<double>(flips1) / trials, 0.3, 0.01);
}

TEST(ReadoutError, PerfectReadoutIsIdentity) {
  Rng rng(3);
  const auto readout = ReadoutError::uniform(8, 0.0, 0.0);
  for (std::uint64_t outcome : {0ull, 0xAAull, 0xFFull})
    EXPECT_EQ(readout.corrupt(outcome, rng), outcome);
}

}  // namespace
}  // namespace hpcqc::qsim
