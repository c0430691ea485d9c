#pragma once

#include <span>

#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::qsim {

/// Exact open-system simulator: the density matrix rho evolves under
/// unitaries and Kraus channels without sampling noise. Quadratically more
/// expensive than the state vector (rho is stored as a 2n-qubit vector), so
/// it is capped at 10 qubits — its role is to *validate* the trajectory
/// noise channels the device twin uses, not to replace them.
class DensityMatrix {
public:
  /// |0...0><0...0| on `num_qubits` (1 to 10).
  explicit DensityMatrix(int num_qubits);

  /// |psi><psi| of a pure state.
  static DensityMatrix from_state(const StateVector& state);

  int num_qubits() const { return num_qubits_; }
  std::uint64_t dimension() const { return std::uint64_t{1} << num_qubits_; }

  /// Element <r| rho |c>.
  Complex element(std::uint64_t row, std::uint64_t column) const;

  /// rho -> U rho U† on one / two qubits.
  void apply_1q(const Matrix2& u, int qubit);
  void apply_2q(const Matrix4& u, int qubit0, int qubit1);
  /// The controlled-phase diagonal as a dense apply_2q.
  void apply_cphase(double theta, int qubit0, int qubit1);

  /// rho -> sum_k K_k rho K_k† (single-qubit Kraus set).
  void apply_kraus_1q(std::span<const Matrix2> kraus, int qubit);

  /// Depolarizing channel: with probability p a uniformly random
  /// non-identity Pauli — the average of the one-qubit insertions
  /// device::CompiledProgram::draw_insertions samples.
  void apply_depolarizing(int qubit, double p);

  /// Two-qubit depolarizing channel: with probability p a uniformly random
  /// non-identity two-qubit Pauli on the pair. This is the exact channel
  /// device::CompiledProgram::draw_insertions samples per noisy two-qubit
  /// step, which is what lets the differential oracle in `verify/` compare
  /// the two simulators without sampling error on this side.
  void apply_depolarizing_2q(int qubit0, int qubit1, double p);

  /// tr(rho): 1 for any physical evolution.
  double trace() const;
  /// tr(rho^2): 1 for pure states, down to 1/2^n when fully mixed.
  double purity() const;

  /// Diagonal of rho: measurement distribution over basis states.
  std::vector<double> probabilities() const;

  /// <psi| rho |psi> — fidelity against a pure reference.
  double fidelity(const StateVector& reference) const;

  /// tr(rho Z_mask).
  double expectation_z(std::uint64_t mask) const;

private:
  explicit DensityMatrix(int num_qubits, StateVector super);

  int num_qubits_;
  /// rho flattened: bits [0, n) index the column, bits [n, 2n) the row.
  StateVector super_;
};

}  // namespace hpcqc::qsim
