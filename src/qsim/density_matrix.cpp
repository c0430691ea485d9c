#include "hpcqc/qsim/density_matrix.hpp"

#include <bit>
#include <cmath>

#include "hpcqc/common/error.hpp"

namespace hpcqc::qsim {

namespace {

Matrix2 conjugated(const Matrix2& m) {
  return {std::conj(m[0]), std::conj(m[1]), std::conj(m[2]), std::conj(m[3])};
}

Matrix4 conjugated(const Matrix4& m) {
  Matrix4 out{};
  for (int i = 0; i < 16; ++i)
    out[static_cast<std::size_t>(i)] =
        std::conj(m[static_cast<std::size_t>(i)]);
  return out;
}

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(num_qubits), super_(2 * num_qubits) {
  expects(num_qubits >= 1 && num_qubits <= 10,
          "DensityMatrix: qubit count must be in [1, 10]");
  // StateVector starts at |0...0> of 2n qubits, which is exactly
  // |0><0| flattened. Nothing further to do.
}

DensityMatrix::DensityMatrix(int num_qubits, StateVector super)
    : num_qubits_(num_qubits), super_(std::move(super)) {}

DensityMatrix DensityMatrix::from_state(const StateVector& state) {
  expects(state.num_qubits() <= 10,
          "DensityMatrix::from_state: at most 10 qubits");
  const int n = state.num_qubits();
  StateVector super(2 * n);
  auto& rho = super.mutable_amplitudes();
  const auto& amps = state.amplitudes();
  const std::uint64_t dim = std::uint64_t{1} << n;
  for (std::uint64_t r = 0; r < dim; ++r)
    for (std::uint64_t c = 0; c < dim; ++c)
      rho[(r << n) | c] = amps[r] * std::conj(amps[c]);
  return DensityMatrix(n, std::move(super));
}

Complex DensityMatrix::element(std::uint64_t row, std::uint64_t column) const {
  expects(row < dimension() && column < dimension(),
          "DensityMatrix::element: index out of range");
  return super_.amplitude((row << num_qubits_) | column);
}

void DensityMatrix::apply_1q(const Matrix2& u, int qubit) {
  expects(qubit >= 0 && qubit < num_qubits_,
          "DensityMatrix::apply_1q: qubit out of range");
  // U on the row index, U* on the column index.
  super_.apply_1q(u, num_qubits_ + qubit);
  super_.apply_1q(conjugated(u), qubit);
}

void DensityMatrix::apply_2q(const Matrix4& u, int qubit0, int qubit1) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_ && qubit0 != qubit1,
          "DensityMatrix::apply_2q: invalid qubits");
  super_.apply_2q(u, num_qubits_ + qubit0, num_qubits_ + qubit1);
  super_.apply_2q(conjugated(u), qubit0, qubit1);
}

void DensityMatrix::apply_cphase(double theta, int qubit0, int qubit1) {
  apply_2q(gate_cphase(theta), qubit0, qubit1);
}

void DensityMatrix::apply_kraus_1q(std::span<const Matrix2> kraus,
                                   int qubit) {
  expects(!kraus.empty(), "DensityMatrix::apply_kraus_1q: empty Kraus set");
  const auto& original = super_.amplitudes();
  std::vector<Complex> accumulated(original.size(), Complex{0.0, 0.0});
  for (const Matrix2& k : kraus) {
    StateVector branch = super_;
    branch.apply_1q(k, num_qubits_ + qubit);
    branch.apply_1q(conjugated(k), qubit);
    const auto& amps = branch.amplitudes();
    for (std::size_t i = 0; i < accumulated.size(); ++i)
      accumulated[i] += amps[i];
  }
  super_.mutable_amplitudes() = std::move(accumulated);
}

void DensityMatrix::apply_depolarizing(int qubit, double p) {
  expects(p >= 0.0 && p <= 1.0,
          "DensityMatrix::apply_depolarizing: p outside [0,1]");
  const double q = std::sqrt(p / 3.0);
  const double keep = std::sqrt(1.0 - p);
  Matrix2 k0 = gate_i();
  Matrix2 k1 = gate_x();
  Matrix2 k2 = gate_y();
  Matrix2 k3 = gate_z();
  for (auto& entry : k0) entry *= keep;
  for (auto& entry : k1) entry *= q;
  for (auto& entry : k2) entry *= q;
  for (auto& entry : k3) entry *= q;
  const Matrix2 kraus[] = {k0, k1, k2, k3};
  apply_kraus_1q(kraus, qubit);
}

void DensityMatrix::apply_depolarizing_2q(int qubit0, int qubit1, double p) {
  expects(qubit0 >= 0 && qubit0 < num_qubits_ && qubit1 >= 0 &&
              qubit1 < num_qubits_ && qubit0 != qubit1,
          "DensityMatrix::apply_depolarizing_2q: invalid qubits");
  expects(p >= 0.0 && p <= 1.0,
          "DensityMatrix::apply_depolarizing_2q: p outside [0,1]");
  if (p == 0.0) return;
  // rho -> (1-p) rho + p/15 sum_{P != I (x) I} P rho P over the 15
  // non-identity two-qubit Paulis (all Hermitian, so P = P^dag).
  const Matrix2 paulis[4] = {gate_i(), gate_x(), gate_y(), gate_z()};
  std::vector<Complex> accumulated(super_.amplitudes().size(),
                                   Complex{0.0, 0.0});
  for (int k = 0; k < 16; ++k) {
    const double weight = k == 0 ? 1.0 - p : p / 15.0;
    StateVector branch = super_;
    const Matrix4 pair = kron(paulis[k / 4], paulis[k % 4]);
    branch.apply_2q(pair, num_qubits_ + qubit0, num_qubits_ + qubit1);
    branch.apply_2q(conjugated(pair), qubit0, qubit1);
    const auto& amps = branch.amplitudes();
    for (std::size_t i = 0; i < accumulated.size(); ++i)
      accumulated[i] += weight * amps[i];
  }
  super_.mutable_amplitudes() = std::move(accumulated);
}

double DensityMatrix::trace() const {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dimension(); ++i)
    acc += element(i, i).real();
  return acc;
}

double DensityMatrix::purity() const {
  // tr(rho^2) = sum_{rc} |rho_{rc}|^2 for Hermitian rho.
  double acc = 0.0;
  for (const auto& amp : super_.amplitudes()) acc += std::norm(amp);
  return acc;
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> probs(dimension());
  for (std::uint64_t i = 0; i < dimension(); ++i)
    probs[i] = element(i, i).real();
  return probs;
}

double DensityMatrix::fidelity(const StateVector& reference) const {
  expects(reference.num_qubits() == num_qubits_,
          "DensityMatrix::fidelity: register size mismatch");
  const auto& psi = reference.amplitudes();
  Complex acc{0.0, 0.0};
  for (std::uint64_t r = 0; r < dimension(); ++r)
    for (std::uint64_t c = 0; c < dimension(); ++c)
      acc += std::conj(psi[r]) * element(r, c) * psi[c];
  return acc.real();
}

double DensityMatrix::expectation_z(std::uint64_t mask) const {
  double acc = 0.0;
  for (std::uint64_t i = 0; i < dimension(); ++i) {
    const int parity = std::popcount(i & mask) & 1;
    acc += (parity ? -1.0 : 1.0) * element(i, i).real();
  }
  return acc;
}

}  // namespace hpcqc::qsim
