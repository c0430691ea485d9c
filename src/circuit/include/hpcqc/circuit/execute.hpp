#pragma once

#include <cstdint>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/qsim/counts.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::circuit {

/// The unitary of one gate, in the form the state-vector kernels take.
struct GateUnitary {
  enum class Form {
    kIdentity,  ///< identity or barrier: nothing to apply
    k1q,        ///< m2 on qubits[0]
    kDense2q,   ///< *m4 on (qubits[0], qubits[1])
    kCphase,    ///< diagonal controlled phase `theta` (CZ is pi)
  };
  Form form = Form::kIdentity;
  qsim::Matrix2 m2{};
  const qsim::Matrix4* m4 = nullptr;  ///< points at a process-wide constant
  double theta = 0.0;
};

/// Maps a gate to its unitary: the one gate-to-matrix lowering, shared by
/// apply_op and device::CompiledProgram. Measurements have no unitary and
/// are rejected with PreconditionError.
GateUnitary gate_unitary(const Operation& op);

/// Applies one gate operation to a state vector (barriers are no-ops;
/// measurements are rejected — use run_ideal for measured circuits).
void apply_op(qsim::StateVector& state, const Operation& op);

/// Applies every gate of the circuit, skipping barriers and measurements.
/// This yields the ideal (noiseless) final state.
void apply_gates(qsim::StateVector& state, const Circuit& circuit);

/// Ideal execution: evolves |0..0> through the circuit and samples `shots`
/// outcomes of the measured qubits (compacted in ascending qubit order).
qsim::Counts run_ideal(const Circuit& circuit, std::size_t shots, Rng& rng);

/// Exact outcome distribution of the measured qubits (marginalized).
std::vector<double> ideal_distribution(const Circuit& circuit);

/// Compacts a full-register outcome to the bits of `qubits`
/// (qubits[i] becomes bit i of the result).
std::uint64_t compact_outcome(std::uint64_t full, std::span<const int> qubits);

}  // namespace hpcqc::circuit
