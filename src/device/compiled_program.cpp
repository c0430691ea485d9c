#include "hpcqc/device/compiled_program.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/density_matrix.hpp"

namespace hpcqc::device {

namespace {

/// Depolarizing "keep" parameter of a 1q Pauli-error channel with error
/// probability p: the channel is lambda*rho + (1-lambda)*I/2 with
/// lambda = 1 - 4p/3, and composition multiplies the lambdas.
double depol_keep_1q(double p) { return 1.0 - (4.0 / 3.0) * p; }

double depol_error_from_keep_1q(double keep) {
  return std::clamp(0.75 * (1.0 - keep), 0.0, 1.0);
}

}  // namespace

CompiledProgram::CompiledProgram(const circuit::Circuit& circuit,
                                 const Topology& topology,
                                 const CalibrationState& calibration) {
  using circuit::OpKind;
  const int num_physical = topology.num_qubits();
  expects(circuit.num_qubits() == num_physical,
          "CompiledProgram: circuit register must match the device");

  // Simulate only the active (touched or measured) qubits: idle qubits
  // stay in |0> and would only waste state-vector memory.
  const std::vector<int> measured = circuit.measured_qubits();
  std::vector<bool> used(static_cast<std::size_t>(num_physical), false);
  for (const auto& op : circuit.ops())
    for (int q : op.qubits) used[static_cast<std::size_t>(q)] = true;
  for (int q : measured) used[static_cast<std::size_t>(q)] = true;
  for (int q = 0; q < num_physical; ++q)
    if (used[static_cast<std::size_t>(q)]) active_.push_back(q);
  if (active_.empty()) active_.push_back(0);

  std::vector<int> phys_to_dense(static_cast<std::size_t>(num_physical), -1);
  for (std::size_t d = 0; d < active_.size(); ++d)
    phys_to_dense[static_cast<std::size_t>(active_[d])] = static_cast<int>(d);
  dense_qubits_ = static_cast<int>(active_.size());
  dense_measured_.reserve(measured.size());
  for (int q : measured)
    dense_measured_.push_back(phys_to_dense[static_cast<std::size_t>(q)]);

  // Per-dense-qubit 1q error rate, resolved once from the snapshot (it
  // depends only on the qubit, not the gate kind).
  std::vector<double> keep_1q(active_.size());
  for (std::size_t d = 0; d < active_.size(); ++d) {
    const double p = qsim::pauli_error_prob_from_avg_fidelity(
        calibration.qubits[static_cast<std::size_t>(active_[d])].fidelity_1q,
        1);
    keep_1q[d] = depol_keep_1q(p);
  }

  // Fuse maximal runs of 1q gates per qubit: a pending matrix accumulates
  // left-multiplications until a 2q gate (or the end of the circuit)
  // forces a flush. Gates on other qubits commute past the pending run,
  // so flushing out of circuit order is exact.
  struct Pending {
    qsim::Matrix2 m{};
    double keep = 1.0;
    bool any = false;
    std::vector<std::uint32_t> sources;  ///< constituent ops, in order
  };
  std::vector<Pending> pending(active_.size());
  const auto flush = [&](int d) {
    auto& slot = pending[static_cast<std::size_t>(d)];
    if (!slot.any) return;
    CompiledOp op;
    op.kind = CompiledOp::Kind::kFused1q;
    op.q0 = d;
    op.m2 = slot.m;
    op.error_prob = depol_error_from_keep_1q(slot.keep);
    ops_.push_back(op);
    sources_.push_back(std::move(slot.sources));
    slot = Pending{};
  };

  using Form = circuit::GateUnitary::Form;
  const auto& source_ops = circuit.ops();
  for (std::size_t i = 0; i < source_ops.size(); ++i) {
    const auto& op = source_ops[i];
    if (op.kind == OpKind::kMeasure) continue;
    const circuit::GateUnitary u = circuit::gate_unitary(op);
    if (u.form == Form::kIdentity) continue;  // identities carry no error
    if (u.form != Form::k1q) {
      const int d0 = phys_to_dense[static_cast<std::size_t>(op.qubits[0])];
      const int d1 = phys_to_dense[static_cast<std::size_t>(op.qubits[1])];
      flush(d0);
      flush(d1);
      const int edge = topology.edge_index(op.qubits[0], op.qubits[1]);
      CompiledOp out;
      out.q0 = d0;
      out.q1 = d1;
      out.error_prob = qsim::pauli_error_prob_from_avg_fidelity(
          calibration.couplers[static_cast<std::size_t>(edge)].fidelity_cz,
          2);
      std::vector<std::uint32_t> sources;
      if (u.form == Form::kCphase) {
        out.kind = CompiledOp::Kind::kCphase;
        out.theta = u.theta;
        // CZ's angle is fixed; only CPhase follows a rebind.
        if (op.kind == OpKind::kCphase)
          sources.push_back(static_cast<std::uint32_t>(i));
      } else {
        out.kind = CompiledOp::Kind::kDense2q;
        out.m4 = *u.m4;
      }
      ops_.push_back(out);
      sources_.push_back(std::move(sources));
      continue;
    }
    const int d = phys_to_dense[static_cast<std::size_t>(op.qubits[0])];
    auto& slot = pending[static_cast<std::size_t>(d)];
    if (slot.any) {
      slot.m = qsim::matmul(u.m2, slot.m);  // u acts after the pending run
    } else {
      slot.m = u.m2;
      slot.any = true;
    }
    slot.keep *= keep_1q[static_cast<std::size_t>(d)];
    slot.sources.push_back(static_cast<std::uint32_t>(i));
  }
  for (int d = 0; d < dense_qubits_; ++d) flush(d);
  source_shape_hash_ = circuit.shape_hash();
}

void CompiledProgram::rebind(const circuit::Circuit& circuit) {
  expects(circuit.shape_hash() == source_shape_hash_,
          "CompiledProgram::rebind: circuit shape differs from the source");
  const auto& source_ops = circuit.ops();
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    auto& op = ops_[i];
    const auto& sources = sources_[i];
    if (sources.empty()) continue;  // angle-independent step
    if (op.kind == CompiledOp::Kind::kCphase) {
      op.theta = source_ops[sources[0]].params[0];
      continue;
    }
    // Replay the constructor's accumulation order exactly, so the fused
    // matrix is bit-identical to a fresh compilation of `circuit`.
    qsim::Matrix2 m = circuit::gate_unitary(source_ops[sources[0]]).m2;
    for (std::size_t s = 1; s < sources.size(); ++s)
      m = qsim::matmul(circuit::gate_unitary(source_ops[sources[s]]).m2, m);
    op.m2 = m;
  }
}

void CompiledProgram::draw_insertions(Rng& rng,
                                      std::vector<PauliInsertion>& out) const {
  out.clear();
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    const auto& op = ops_[i];
    if (op.error_prob <= 0.0) continue;
    if (!rng.bernoulli(op.error_prob)) continue;
    PauliInsertion ins;
    ins.op_index = static_cast<std::uint32_t>(i);
    if (op.kind == CompiledOp::Kind::kFused1q) {
      ins.which = static_cast<std::uint8_t>(rng.uniform_index(3));
    } else {
      // Uniform over the 15 non-identity two-qubit Paulis: the channel
      // qsim::DensityMatrix::apply_depolarizing_2q averages to.
      ins.which = static_cast<std::uint8_t>(1 + rng.uniform_index(15));
    }
    out.push_back(ins);
  }
}

template <typename State>
void CompiledProgram::apply_step(State& state, std::size_t i) const {
  const auto& op = ops_[i];
  switch (op.kind) {
    case CompiledOp::Kind::kFused1q: state.apply_1q(op.m2, op.q0); break;
    case CompiledOp::Kind::kCphase:
      state.apply_cphase(op.theta, op.q0, op.q1);
      break;
    case CompiledOp::Kind::kDense2q:
      state.apply_2q(op.m4, op.q0, op.q1);
      break;
  }
}

template void CompiledProgram::apply_step(qsim::StateVector&,
                                          std::size_t) const;
template void CompiledProgram::apply_step(qsim::DensityMatrix&,
                                          std::size_t) const;

void CompiledProgram::run_range(
    qsim::StateVector& state, std::size_t first,
    std::span<const PauliInsertion> insertions) const {
  static const qsim::Matrix2 kPauli[4] = {qsim::gate_i(), qsim::gate_x(),
                                          qsim::gate_y(), qsim::gate_z()};
  std::size_t next = 0;
  for (std::size_t i = first; i < ops_.size(); ++i) {
    apply_step(state, i);
    if (next < insertions.size() && insertions[next].op_index == i) {
      const int which = insertions[next].which;
      ++next;
      if (ops_[i].kind == CompiledOp::Kind::kFused1q) {
        state.apply_1q(kPauli[which + 1], ops_[i].q0);
      } else {
        if (which % 4) state.apply_1q(kPauli[which % 4], ops_[i].q0);
        if (which / 4) state.apply_1q(kPauli[which / 4], ops_[i].q1);
      }
    }
  }
}

void CompiledProgram::run(qsim::StateVector& state, Rng& rng) const {
  std::vector<PauliInsertion> insertions;
  draw_insertions(rng, insertions);
  run_range(state, 0, insertions);
}

void CompiledProgram::run_ideal(qsim::StateVector& state) const {
  for (std::size_t i = 0; i < ops_.size(); ++i) apply_step(state, i);
}

}  // namespace hpcqc::device
