#include "hpcqc/circuit/execute.hpp"

#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/gates.hpp"

namespace hpcqc::circuit {

GateUnitary gate_unitary(const Operation& op) {
  using qsim::Matrix2;
  using qsim::Matrix4;
  using Form = GateUnitary::Form;
  // Constant gate matrices are built once per process, not per call.
  static const Matrix2 kX = qsim::gate_x();
  static const Matrix2 kY = qsim::gate_y();
  static const Matrix2 kZ = qsim::gate_z();
  static const Matrix2 kH = qsim::gate_h();
  static const Matrix2 kS = qsim::gate_s();
  static const Matrix2 kSdg = qsim::gate_sdg();
  static const Matrix2 kT = qsim::gate_t();
  static const Matrix2 kTdg = qsim::gate_tdg();
  static const Matrix2 kSx = qsim::gate_sx();
  static const Matrix4 kCx = qsim::gate_cx();
  static const Matrix4 kSwap = qsim::gate_swap();
  static const Matrix4 kIswap = qsim::gate_iswap();
  switch (op.kind) {
    case OpKind::kI:
    case OpKind::kBarrier:
      return {};
    case OpKind::kMeasure:
      throw PreconditionError(
          "gate_unitary: measurements are handled by run_ideal, not apply_op");
    case OpKind::kX: return {Form::k1q, kX};
    case OpKind::kY: return {Form::k1q, kY};
    case OpKind::kZ: return {Form::k1q, kZ};
    case OpKind::kH: return {Form::k1q, kH};
    case OpKind::kS: return {Form::k1q, kS};
    case OpKind::kSdg: return {Form::k1q, kSdg};
    case OpKind::kT: return {Form::k1q, kT};
    case OpKind::kTdg: return {Form::k1q, kTdg};
    case OpKind::kSx: return {Form::k1q, kSx};
    case OpKind::kRx: return {Form::k1q, qsim::gate_rx(op.params[0])};
    case OpKind::kRy: return {Form::k1q, qsim::gate_ry(op.params[0])};
    case OpKind::kRz: return {Form::k1q, qsim::gate_rz(op.params[0])};
    case OpKind::kU:
      return {Form::k1q,
              qsim::gate_u(op.params[0], op.params[1], op.params[2])};
    case OpKind::kPrx:
      return {Form::k1q, qsim::gate_prx(op.params[0], op.params[1])};
    case OpKind::kCz: return {Form::kCphase, {}, nullptr, M_PI};
    case OpKind::kCx: return {Form::kDense2q, {}, &kCx};
    case OpKind::kSwap: return {Form::kDense2q, {}, &kSwap};
    case OpKind::kIswap: return {Form::kDense2q, {}, &kIswap};
    case OpKind::kCphase: return {Form::kCphase, {}, nullptr, op.params[0]};
  }
  throw Error("gate_unitary: unhandled op kind");
}

void apply_op(qsim::StateVector& state, const Operation& op) {
  using Form = GateUnitary::Form;
  const GateUnitary u = gate_unitary(op);
  switch (u.form) {
    case Form::kIdentity: return;
    case Form::k1q: state.apply_1q(u.m2, op.qubits[0]); return;
    case Form::kDense2q:
      state.apply_2q(*u.m4, op.qubits[0], op.qubits[1]);
      return;
    case Form::kCphase:
      state.apply_cphase(u.theta, op.qubits[0], op.qubits[1]);
      return;
  }
}

void apply_gates(qsim::StateVector& state, const Circuit& circuit) {
  expects(state.num_qubits() == circuit.num_qubits(),
          "apply_gates: register size mismatch");
  for (const auto& op : circuit.ops()) {
    if (op.kind == OpKind::kMeasure) continue;
    apply_op(state, op);
  }
}

std::uint64_t compact_outcome(std::uint64_t full,
                              std::span<const int> qubits) {
  std::uint64_t compact = 0;
  for (std::size_t i = 0; i < qubits.size(); ++i)
    if (full & (std::uint64_t{1} << qubits[i]))
      compact |= std::uint64_t{1} << i;
  return compact;
}

qsim::Counts run_ideal(const Circuit& circuit, std::size_t shots, Rng& rng) {
  qsim::StateVector state(circuit.num_qubits());
  apply_gates(state, circuit);
  const std::vector<int> measured = circuit.measured_qubits();
  auto samples = state.sample(shots, rng);
  qsim::Counts counts;
  counts.set_num_qubits(static_cast<int>(measured.size()));
  for (std::uint64_t s : samples) counts.add(compact_outcome(s, measured));
  return counts;
}

std::vector<double> ideal_distribution(const Circuit& circuit) {
  qsim::StateVector state(circuit.num_qubits());
  apply_gates(state, circuit);
  const std::vector<int> measured = circuit.measured_qubits();
  const auto full = state.probabilities();
  std::vector<double> marginal(std::size_t{1} << measured.size(), 0.0);
  for (std::uint64_t i = 0; i < full.size(); ++i)
    marginal[compact_outcome(i, measured)] += full[i];
  return marginal;
}

}  // namespace hpcqc::circuit
