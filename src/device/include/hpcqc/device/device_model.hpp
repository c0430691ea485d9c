#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/device/calibration_state.hpp"
#include "hpcqc/device/compiled_program.hpp"
#include "hpcqc/device/drift.hpp"
#include "hpcqc/device/health_mask.hpp"
#include "hpcqc/device/topology.hpp"
#include "hpcqc/qsim/counts.hpp"
#include "hpcqc/qsim/readout.hpp"

namespace hpcqc::device {

/// How circuit noise is injected during execution.
enum class ExecutionMode {
  /// Per-shot quantum-trajectory simulation: every gate is followed by a
  /// stochastic Pauli error drawn from the live element fidelity, and every
  /// measured bit passes through the readout confusion. Physically faithful
  /// but costs one full state evolution per shot.
  kTrajectory,
  /// Global-depolarizing surrogate: one ideal evolution; each shot samples
  /// the ideal distribution with probability equal to the product of the
  /// process fidelities, otherwise a uniformly random outcome. Cheap and
  /// accurate for the aggregate fidelity metrics the operations model needs.
  kGlobalDepolarizing,
  /// kTrajectory for small jobs (<= 12 qubits and <= 256 shots),
  /// kGlobalDepolarizing otherwise.
  kAuto,
  /// No state evolution at all: only wall time and the analytic fidelity
  /// estimate are produced (counts stay empty). Used by multi-month
  /// operations simulations where per-job distributions are irrelevant.
  kEstimateOnly,
};

/// Progress hook for execute(): called once per shot batch, in batch order,
/// on the calling thread. Batch boundaries and contents are derived from the
/// serially pre-drawn per-shot error realizations — never from OpenMP
/// scheduling — so the emitted sequence is bit-identical for any
/// OMP_NUM_THREADS. `elapsed` is the simulated time from job start through
/// the end of the batch (shots completed x shot duration). A null observer
/// costs one pointer test.
class ExecObserver {
public:
  virtual ~ExecObserver() = default;
  virtual void on_shot_batch(std::size_t batch_index, std::size_t first_shot,
                             std::size_t shots_in_batch,
                             std::size_t errored_shots, Seconds elapsed) = 0;
};

/// Shots per observer batch (last batch may be short).
inline constexpr std::size_t kExecBatchShots = 64;

/// Caller-owned slot for the per-job compilation execute() performs. When a
/// caller replays the same circuit *shape* at different parameter bindings
/// (the variational tight loop), passing the same PreparedProgram lets
/// execute() rebind the cached program's angles instead of re-densifying and
/// re-fusing from scratch. Validity is keyed on the circuit's shape_hash()
/// and the device's noise_version(); a mismatch on either recompiles in
/// place. Results are bit-identical either way (rebind() replays the
/// compiler's arithmetic exactly), so reuse is purely a CPU-cost knob.
struct PreparedProgram {
  std::unique_ptr<CompiledProgram> program;
  std::uint64_t shape_hash = 0;
  std::uint64_t noise_version = 0;
  std::uint64_t compiles = 0;  ///< full compilations performed through this slot
  std::uint64_t rebinds = 0;   ///< angle-only rebinds performed
};

/// Result of executing one circuit job on the device.
struct ExecutionResult {
  qsim::Counts counts;
  Seconds wall_time = 0.0;          ///< shots x shot_duration
  double estimated_fidelity = 1.0;  ///< analytic circuit fidelity estimate
  std::size_t shots = 0;
};

/// Digital twin of the on-premise superconducting QPU: coupling topology,
/// live calibration state, drift dynamics, and noisy circuit execution.
/// This object stands in for the physical 20-qubit machine everywhere the
/// real integration would talk to hardware.
class DeviceModel {
public:
  DeviceModel(std::string name, Topology topology, DeviceSpec spec,
              DriftParams drift, Rng& rng);

  const std::string& name() const { return name_; }
  const Topology& topology() const { return topology_; }
  const DeviceSpec& spec() const { return spec_; }
  int num_qubits() const { return topology_.num_qubits(); }

  const CalibrationState& calibration() const { return state_; }
  CalibrationState& mutable_calibration() { return state_; }
  const CalibrationState& fresh_reference() const { return fresh_; }

  /// Monotonic counter bumped by every calibration install and every health
  /// mask change. Compile caches key on this instead of `calibrated_at`: two
  /// recalibrations can land at the identical simulated timestamp (quick
  /// recoveries in coarse-stepped campaigns do), and a timestamp key would
  /// then fail to invalidate programs compiled against the superseded
  /// metrics. Mask changes bump it too, so cached placements never keep
  /// routing through a qubit that has since dropped out.
  std::uint64_t calibration_epoch() const { return calibration_epoch_; }

  /// Monotonic counter bumped whenever anything feeding execution noise
  /// changes: calibration installs, drift steps, health-mask changes, and
  /// ambient-drift-rate updates. It is the PreparedProgram validity key —
  /// strictly finer-grained than calibration_epoch() (drift mutates the
  /// live state without installing a calibration).
  std::uint64_t noise_version() const { return noise_version_; }

  /// Per-element up/down state. Starts all-healthy; the operations layer
  /// installs degraded masks when qubits or couplers drop out.
  const HealthMask& health() const { return health_; }

  /// Replaces the health mask; bumps calibration_epoch() when it changes.
  void set_health(HealthMask mask);

  /// Single-element conveniences over set_health().
  void set_qubit_health(int qubit, bool up);
  void set_coupler_health(int a, int b, bool up);

  /// Mask derived from the live calibration under `policy` (not installed).
  HealthMask derive_health(const HealthPolicy& policy) const;

  /// Generates a freshly-calibrated snapshot from the spec: every metric is
  /// drawn around its nominal with the spec's calibration spread.
  CalibrationState sample_fresh_calibration(Seconds at, Rng& rng) const;

  /// Replaces both the live state and the drift anchor (what a full
  /// calibration does; the calibration module drives this).
  void install_calibration(CalibrationState snapshot);

  /// Replaces only the live state, keeping the existing drift anchor
  /// (what a quick calibration does).
  void install_live_state(CalibrationState snapshot);

  /// Applies parameter drift over `dt`.
  void drift(Seconds dt, Rng& rng);

  /// Ambient-temperature instability coupling (§2.3): a room-temperature
  /// drift rate in °C/day adds readout phase error. 0 = perfectly stable.
  void set_ambient_drift_rate(double deg_c_per_day);
  double ambient_drift_rate() const { return ambient_drift_c_per_day_; }

  /// Effective readout confusion for the current state (includes the
  /// ambient-drift penalty).
  qsim::ReadoutError readout_error() const;

  /// Analytic estimate of the fidelity of running `circuit`: product of the
  /// per-gate process fidelities and the measured qubits' readout
  /// fidelities. The executor's global-depolarizing mode is built on it.
  double estimate_circuit_fidelity(const circuit::Circuit& circuit) const;

  /// Executes a circuit whose two-qubit gates respect the topology.
  /// The circuit register must match num_qubits() (compiled circuits are
  /// always full-register). Throws PreconditionError on a 2q gate between
  /// uncoupled qubits, and TransientError(kDeviceUnavailable) when any op
  /// touches a masked qubit or coupler.
  /// `observer`, when non-null, receives deterministic per-batch progress
  /// callbacks (see ExecObserver). `prepared`, when non-null, caches the
  /// per-job compilation across calls (see PreparedProgram).
  ExecutionResult execute(const circuit::Circuit& circuit, std::size_t shots,
                          Rng& rng, ExecutionMode mode = ExecutionMode::kAuto,
                          ExecObserver* observer = nullptr,
                          PreparedProgram* prepared = nullptr);

  /// Shot duration for a given circuit (reset + gates + readout), per §2.4.
  Seconds shot_duration(const circuit::Circuit& circuit) const;

private:
  double gate_process_fidelity(const circuit::Operation& op) const;
  void validate_executable(const circuit::Circuit& circuit) const;

  std::string name_;
  Topology topology_;
  DeviceSpec spec_;
  DriftModel drift_model_;
  CalibrationState state_;
  CalibrationState fresh_;
  HealthMask health_;
  std::uint64_t calibration_epoch_ = 0;
  std::uint64_t noise_version_ = 0;
  double ambient_drift_c_per_day_ = 0.0;
};

/// Extra readout error per (°C/day) of ambient drift — the cabling /
/// electronics phase-delay effect §2.3 describes.
inline constexpr double kReadoutErrorPerDegCDay = 0.004;

}  // namespace hpcqc::device
