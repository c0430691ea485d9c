#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/device/calibration_state.hpp"
#include "hpcqc/device/topology.hpp"
#include "hpcqc/qsim/gates.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::device {

/// One step of a compiled trajectory program. Single-qubit steps carry a
/// fused 2x2 matrix (a maximal run of 1q gates on one qubit collapses to
/// one step); two-qubit steps carry either a dense 4x4 matrix or a
/// controlled-phase angle (the CZ / CPhase diagonal fast path).
/// `error_prob` is the stochastic-Pauli probability injected after the
/// unitary, precomputed from the calibration snapshot and — for fused
/// runs — composed across the constituent gates' depolarizing channels.
struct CompiledOp {
  enum class Kind { kFused1q, kDense2q, kCphase };

  Kind kind = Kind::kFused1q;
  int q0 = 0;               ///< dense qubit (low bit for 2q steps)
  int q1 = 0;               ///< second dense qubit (2q steps only)
  double theta = 0.0;       ///< cphase angle (kCphase only)
  double error_prob = 0.0;  ///< post-unitary Pauli error probability
  qsim::Matrix2 m2{};       ///< kFused1q payload
  qsim::Matrix4 m4{};       ///< kDense2q payload
};

/// A circuit compiled once per DeviceModel::execute() against a live
/// calibration snapshot. Compilation (a) restricts the register to the
/// active (touched or measured) qubits and densifies indices, (b) resolves
/// every gate to its concrete matrix, fusing maximal runs of single-qubit
/// gates on the same qubit into one matrix, and (c) precomputes each
/// step's Pauli error probability from the element fidelities. The shot
/// loop then replays a flat op list with no topology lookups, fidelity
/// conversions, or matrix construction per shot.
///
/// Fusion keeps the noise exact in distribution: the per-gate error
/// channel is depolarizing, which commutes with any unitary on the same
/// qubit(s), so deferring a fused run's composed error to the end of the
/// run realizes the same channel as applying each gate's error after it.
class CompiledProgram {
public:
  /// Compiles `circuit` (which must already be routed/validated against
  /// `topology`) using the error rates in `calibration`. Gates lower to
  /// their matrices through circuit::gate_unitary. Measurements and
  /// barriers are dropped; identity gates carry no error and are elided.
  CompiledProgram(const circuit::Circuit& circuit, const Topology& topology,
                  const CalibrationState& calibration);

  /// shape_hash() of the source circuit (parameter values abstracted out) —
  /// the validity key for rebind().
  std::uint64_t source_shape_hash() const { return source_shape_hash_; }

  /// Re-derives every angle-dependent payload (fused 1q matrices, cphase
  /// angles) from a circuit that is shape-identical to the source — i.e.
  /// the same gates on the same qubits with possibly different parameter
  /// values, as produced by binding a compiled parametric template at a new
  /// angle vector. Error probabilities, fusion structure and qubit
  /// densification are angle-independent, so they are kept; the recomputed
  /// matrices replay the constructor's exact accumulation order, making the
  /// result bit-identical to a fresh compilation of `circuit`. Throws
  /// PreconditionError when the shapes differ.
  void rebind(const circuit::Circuit& circuit);

  /// Number of simulated (dense) qubits; always >= 1.
  int dense_qubits() const { return dense_qubits_; }

  /// Physical qubit simulated at each dense index (dense -> physical).
  const std::vector<int>& active_qubits() const { return active_; }

  /// Measured qubits re-expressed in dense indices, in the order the
  /// result bits are compacted.
  const std::vector<int>& dense_measured() const { return dense_measured_; }

  const std::vector<CompiledOp>& ops() const { return ops_; }

  /// One realized stochastic Pauli error: the step it follows and which
  /// Pauli was drawn (1q steps: 0=X 1=Y 2=Z; 2q steps: 1..15 encoding
  /// (which % 4, which / 4) with 0=I 1=X 2=Y 3=Z per qubit).
  struct PauliInsertion {
    std::uint32_t op_index = 0;
    std::uint8_t which = 0;
  };

  /// Draws one shot's complete error realization from `rng`. The draws are
  /// state-independent, so a trajectory can be realized *before* any state
  /// evolution — this is what lets the engine share the ideal prefix
  /// across shots. Consumes exactly the same stream as run(): one
  /// Bernoulli per noisy step plus one index draw per hit.
  void draw_insertions(Rng& rng, std::vector<PauliInsertion>& out) const;

  /// Applies the unitary of step `i` to `state` (no error injection): a
  /// qsim::StateVector for trajectories, a qsim::DensityMatrix for the
  /// exact oracle in `verify/`. Instantiated for those two in the .cpp.
  template <typename State>
  void apply_step(State& state, std::size_t i) const;

  /// Applies steps [first, ops().size()) to `state`, injecting each listed
  /// insertion after its step. `insertions` must be sorted by op_index and
  /// contain no entry below `first`.
  void run_range(qsim::StateVector& state, std::size_t first,
                 std::span<const PauliInsertion> insertions) const;

  /// Replays the program on `state` (which must span dense_qubits()),
  /// drawing one stochastic Pauli per step from `rng` per its error
  /// probability — one quantum trajectory. Equivalent to
  /// draw_insertions() followed by run_range(0).
  void run(qsim::StateVector& state, Rng& rng) const;

  /// Replays only the unitaries (the ideal final state).
  void run_ideal(qsim::StateVector& state) const;

private:
  int dense_qubits_ = 1;
  std::vector<int> active_;
  std::vector<int> dense_measured_;
  std::vector<CompiledOp> ops_;
  std::uint64_t source_shape_hash_ = 0;
  /// Per-step source-op indices for rebind(): a kFused1q step lists the
  /// constituent 1q ops in accumulation order; a kCphase step lists its
  /// single source op when that op was parametric (kCphase, not kCz);
  /// angle-independent steps have an empty list.
  std::vector<std::vector<std::uint32_t>> sources_;
};

}  // namespace hpcqc::device
