#pragma once

#include <complex>
#include <cstdint>
#include <vector>

#include "hpcqc/common/rng.hpp"
#include "hpcqc/qsim/gates.hpp"

namespace hpcqc::qsim {

/// Full state-vector simulator. Qubit 0 is the least significant bit of the
/// basis-state index. Amplitudes are stored contiguously; the gate-apply
/// kernels stride over the vector and are parallelized with OpenMP when the
/// state is large enough to amortize the fork.
///
/// This class is the stand-in for the physical 20-qubit QPU: the paper
/// onboards its users on "a digital twin of the quantum computer (an
/// emulator)", which is exactly this component.
class StateVector {
public:
  /// Constructs |0...0> on `num_qubits` qubits (max 28 to bound memory).
  explicit StateVector(int num_qubits);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }

  const std::vector<Complex>& amplitudes() const { return amps_; }
  /// Mutable amplitude access for components building on the gate kernels
  /// with non-state semantics (the density-matrix simulator stores rho as
  /// a 2n-qubit vector). Invariants (normalization) become the caller's.
  std::vector<Complex>& mutable_amplitudes() { return amps_; }
  Complex amplitude(std::uint64_t basis_state) const;

  /// Resets to |0...0>.
  void reset();

  /// Applies a single-qubit unitary to `qubit`.
  void apply_1q(const Matrix2& u, int qubit);

  /// Applies a two-qubit unitary; `qubit0` indexes the low bit of the 4x4
  /// matrix basis, `qubit1` the high bit. The qubits must differ.
  void apply_2q(const Matrix4& u, int qubit0, int qubit1);

  /// Diagonal two-qubit phase (fast path for CZ / CPhase).
  void apply_cphase(double theta, int qubit0, int qubit1);

  /// Probability distribution over all 2^n basis states.
  std::vector<double> probabilities() const;

  /// Samples `shots` full-register outcomes from the current distribution
  /// without collapsing the state (the physical analogue: identical
  /// preparations measured repeatedly).
  std::vector<std::uint64_t> sample(std::size_t shots, Rng& rng) const;

  /// Samples one full-register outcome by single-pass inverse-transform
  /// over the amplitudes: O(2^n) time, zero allocation. This is the
  /// per-shot sampler of the trajectory engine — the batched `sample`
  /// builds an O(2^n) CDF which is wasteful for one draw.
  std::uint64_t sample_one(Rng& rng) const;

private:
  int num_qubits_;
  std::vector<Complex> amps_;
};

/// Converts an average gate fidelity into the stochastic-Pauli error
/// probability that device::CompiledProgram::draw_insertions draws after
/// each step: with d = 2^num_qubits, process fidelity
/// F_pro = ((d+1)·F_avg − 1)/d and p = 1 − F_pro.
double pauli_error_prob_from_avg_fidelity(double avg_fidelity,
                                          int num_qubits);

}  // namespace hpcqc::qsim
