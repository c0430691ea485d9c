#include "hpcqc/device/device_model.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/device/compiled_program.hpp"
#include "hpcqc/qsim/state_vector.hpp"

namespace hpcqc::device {

DeviceModel::DeviceModel(std::string name, Topology topology, DeviceSpec spec,
                         DriftParams drift, Rng& rng)
    : name_(std::move(name)),
      topology_(std::move(topology)),
      spec_(spec),
      drift_model_(drift),
      health_(topology_) {
  fresh_ = sample_fresh_calibration(0.0, rng);
  state_ = fresh_;
}

void DeviceModel::set_health(HealthMask mask) {
  expects(mask.num_qubits() == topology_.num_qubits() &&
              mask.num_couplers() == topology_.num_edges(),
          "set_health: mask shape mismatch");
  if (mask == health_) return;
  health_ = std::move(mask);
  ++calibration_epoch_;
  ++noise_version_;
}

void DeviceModel::set_qubit_health(int qubit, bool up) {
  HealthMask mask = health_;
  mask.set_qubit(qubit, up);
  set_health(std::move(mask));
}

void DeviceModel::set_coupler_health(int a, int b, bool up) {
  HealthMask mask = health_;
  mask.set_coupler(topology_.edge_index(a, b), up);
  set_health(std::move(mask));
}

HealthMask DeviceModel::derive_health(const HealthPolicy& policy) const {
  return device::derive_health(topology_, state_, policy);
}

CalibrationState DeviceModel::sample_fresh_calibration(Seconds at,
                                                       Rng& rng) const {
  CalibrationState snapshot;
  snapshot.calibrated_at = at;
  snapshot.qubits.resize(static_cast<std::size_t>(topology_.num_qubits()));
  snapshot.couplers.resize(static_cast<std::size_t>(topology_.num_edges()));

  // Element-to-element variation: error rates are lognormal around the
  // nominal error, times are lognormal around the nominal time.
  const auto spread_error = [&](double nominal_fidelity) {
    const double err = (1.0 - nominal_fidelity) *
                       std::exp(spec_.calibration_spread * rng.normal());
    return 1.0 - std::clamp(err, 1e-6, 0.4);
  };
  const auto spread_time = [&](double nominal_us) {
    return nominal_us * std::exp(spec_.calibration_spread * rng.normal());
  };

  for (auto& qubit : snapshot.qubits) {
    qubit.t1_us = spread_time(spec_.nominal_t1_us);
    qubit.t2_us = std::min(2.0 * qubit.t1_us, spread_time(spec_.nominal_t2_us));
    qubit.fidelity_1q = spread_error(spec_.nominal_fidelity_1q);
    qubit.readout_fidelity = spread_error(spec_.nominal_readout_fidelity);
    qubit.tls_defect = false;
  }
  for (auto& coupler : snapshot.couplers)
    coupler.fidelity_cz = spread_error(spec_.nominal_fidelity_cz);
  return snapshot;
}

void DeviceModel::install_calibration(CalibrationState snapshot) {
  expects(snapshot.qubits.size() ==
                  static_cast<std::size_t>(topology_.num_qubits()) &&
              snapshot.couplers.size() ==
                  static_cast<std::size_t>(topology_.num_edges()),
          "install_calibration: snapshot shape mismatch");
  fresh_ = snapshot;
  state_ = std::move(snapshot);
  ++calibration_epoch_;
  ++noise_version_;
}

void DeviceModel::install_live_state(CalibrationState snapshot) {
  expects(snapshot.qubits.size() == state_.qubits.size() &&
              snapshot.couplers.size() == state_.couplers.size(),
          "install_live_state: snapshot shape mismatch");
  state_ = std::move(snapshot);
  ++calibration_epoch_;
  ++noise_version_;
}

void DeviceModel::drift(Seconds dt, Rng& rng) {
  drift_model_.advance(state_, fresh_, dt, rng);
  ++noise_version_;
}

void DeviceModel::set_ambient_drift_rate(double deg_c_per_day) {
  expects(deg_c_per_day >= 0.0, "ambient drift rate cannot be negative");
  if (deg_c_per_day != ambient_drift_c_per_day_) ++noise_version_;
  ambient_drift_c_per_day_ = deg_c_per_day;
}

qsim::ReadoutError DeviceModel::readout_error() const {
  std::vector<qsim::ReadoutConfusion> per_qubit;
  per_qubit.reserve(state_.qubits.size());
  const double thermal_penalty =
      kReadoutErrorPerDegCDay * ambient_drift_c_per_day_;
  for (const auto& qubit : state_.qubits) {
    const double err = std::clamp(
        (1.0 - qubit.readout_fidelity) + thermal_penalty, 0.0, 0.5);
    // Readout of |1> is slightly worse than |0> (T1 decay during readout),
    // split 40/60 around the assignment error.
    per_qubit.push_back({0.8 * err, 1.2 * err});
  }
  return qsim::ReadoutError(std::move(per_qubit));
}

double DeviceModel::gate_process_fidelity(const circuit::Operation& op) const {
  using circuit::OpKind;
  if (op.kind == OpKind::kBarrier || op.kind == OpKind::kMeasure ||
      op.kind == OpKind::kI)
    return 1.0;
  if (circuit::op_is_two_qubit(op.kind)) {
    const int edge = topology_.edge_index(op.qubits[0], op.qubits[1]);
    const double avg =
        state_.couplers[static_cast<std::size_t>(edge)].fidelity_cz;
    return 1.0 - qsim::pauli_error_prob_from_avg_fidelity(avg, 2);
  }
  const double avg =
      state_.qubits[static_cast<std::size_t>(op.qubits[0])].fidelity_1q;
  return 1.0 - qsim::pauli_error_prob_from_avg_fidelity(avg, 1);
}

double DeviceModel::estimate_circuit_fidelity(
    const circuit::Circuit& circuit) const {
  double fidelity = 1.0;
  for (const auto& op : circuit.ops()) fidelity *= gate_process_fidelity(op);
  const double thermal_penalty =
      kReadoutErrorPerDegCDay * ambient_drift_c_per_day_;
  for (int q : circuit.measured_qubits()) {
    const double ro = std::clamp(
        state_.qubits[static_cast<std::size_t>(q)].readout_fidelity -
            thermal_penalty,
        0.5, 1.0);
    fidelity *= ro;
  }
  return fidelity;
}

void DeviceModel::validate_executable(const circuit::Circuit& circuit) const {
  expects(circuit.num_qubits() == topology_.num_qubits(),
          "execute: circuit register must match the device "
          "(compile/route first)");
  for (const auto& op : circuit.ops()) {
    if (circuit::op_is_two_qubit(op.kind) &&
        !topology_.has_edge(op.qubits[0], op.qubits[1])) {
      throw PreconditionError(
          "execute: two-qubit gate between uncoupled qubits q" +
          std::to_string(op.qubits[0]) + ", q" +
          std::to_string(op.qubits[1]) + " — route the circuit first");
    }
  }
  if (!health_.all_healthy() && !health_.circuit_legal(topology_, circuit)) {
    throw TransientError(
        "execute: circuit touches a masked qubit or coupler — recompile "
        "against the degraded topology",
        ErrorCode::kDeviceUnavailable);
  }
}

Seconds DeviceModel::shot_duration(const circuit::Circuit& circuit) const {
  const std::size_t total_depth = circuit.depth();
  const std::size_t depth_2q =
      std::min(circuit.two_qubit_gate_count(), total_depth);
  const std::size_t depth_1q = total_depth - depth_2q;
  return spec_.shot_duration(depth_1q, depth_2q);
}

ExecutionResult DeviceModel::execute(const circuit::Circuit& circuit,
                                     std::size_t shots, Rng& rng,
                                     ExecutionMode mode, ExecObserver* observer,
                                     PreparedProgram* prepared) {
  expects(shots > 0, "execute: need at least one shot");
  validate_executable(circuit);

  ExecutionResult result;
  result.shots = shots;
  result.estimated_fidelity = estimate_circuit_fidelity(circuit);
  const Seconds per_shot = shot_duration(circuit);
  result.wall_time = static_cast<double>(shots) * per_shot;

  const std::vector<int> measured = circuit.measured_qubits();
  result.counts.set_num_qubits(static_cast<int>(measured.size()));

  if (mode == ExecutionMode::kEstimateOnly) {
    if (observer != nullptr)
      observer->on_shot_batch(0, 0, shots, 0, result.wall_time);
    return result;
  }

  // Compile once per job: densified indices, fused matrices, precomputed
  // error rates. Every shot replays this flat program. A valid caller-owned
  // PreparedProgram short-circuits the compilation to an angle rebind.
  std::unique_ptr<CompiledProgram> scratch;
  const CompiledProgram* program_ptr = nullptr;
  if (prepared != nullptr) {
    const std::uint64_t shape = circuit.shape_hash();
    if (prepared->program != nullptr && prepared->shape_hash == shape &&
        prepared->noise_version == noise_version_) {
      prepared->program->rebind(circuit);
      ++prepared->rebinds;
    } else {
      prepared->program =
          std::make_unique<CompiledProgram>(circuit, topology_, state_);
      prepared->shape_hash = shape;
      prepared->noise_version = noise_version_;
      ++prepared->compiles;
    }
    program_ptr = prepared->program.get();
  } else {
    scratch = std::make_unique<CompiledProgram>(circuit, topology_, state_);
    program_ptr = scratch.get();
  }
  const CompiledProgram& program = *program_ptr;

  // Per-dense-qubit readout confusion from the physical elements.
  const qsim::ReadoutError full_readout = readout_error();
  std::vector<qsim::ReadoutConfusion> dense_confusion;
  dense_confusion.reserve(program.active_qubits().size());
  for (int q : program.active_qubits())
    dense_confusion.push_back(full_readout.qubit(q));
  const qsim::ReadoutError readout(std::move(dense_confusion));

  if (mode == ExecutionMode::kAuto) {
    mode = (program.dense_qubits() <= 12 && shots <= 256)
               ? ExecutionMode::kTrajectory
               : ExecutionMode::kGlobalDepolarizing;
  }

  if (mode == ExecutionMode::kTrajectory) {
    // Shot-parallel trajectory engine. Three properties make it fast and
    // reproducible:
    //  1. Per-shot RNG streams: each shot's generator is seeded from a
    //     SplitMix64 stream anchored at one draw from the caller's
    //     generator, so counts are bit-identical for any OMP_NUM_THREADS
    //     (and the caller's stream always advances by exactly one draw).
    //  2. Pre-drawn error realizations: the stochastic Pauli insertions
    //     are state-independent, so each shot's realization is drawn up
    //     front. Shots with no errors sample the shared ideal final state
    //     without evolving anything.
    //  3. Prefix sharing: the ideal evolution is checkpointed once; an
    //     errored shot copies the nearest checkpoint at or before its
    //     first insertion and evolves only the remaining suffix.
    // Arithmetic is identical to evolving each shot from |0..0>, so the
    // engine is bit-exact against the unshared path.
    const std::uint64_t stream_base = rng();
    const auto shot_count = static_cast<std::int64_t>(shots);
    const std::vector<int>& dense_measured = program.dense_measured();
    const std::size_t n_ops = program.ops().size();

    // Phase A: realize every shot's error insertions (serial; cheap).
    std::vector<Rng> shot_rngs;
    shot_rngs.reserve(shots);
    std::vector<std::vector<CompiledProgram::PauliInsertion>> realizations(
        shots);
    for (std::size_t s = 0; s < shots; ++s) {
      std::uint64_t stream = stream_base + static_cast<std::uint64_t>(s);
      Rng shot_rng(splitmix64(stream));
      program.draw_insertions(shot_rng, realizations[s]);
      shot_rngs.push_back(shot_rng);  // positioned after the error draws
    }

    // Phase B: checkpoint the ideal prefix evolution. The checkpoint
    // count adapts to the state size so the memory budget stays bounded;
    // with zero checkpoints the engine degrades to full re-evolution
    // from |0..0> per errored shot (still sharing the final state).
    constexpr std::uint64_t kCheckpointBudgetBytes = 256ull << 20;
    const std::uint64_t state_bytes =
        sizeof(qsim::Complex) << program.dense_qubits();
    const std::uint64_t max_ckpts =
        std::min<std::uint64_t>(32, kCheckpointBudgetBytes / state_bytes);
    const std::size_t stride =
        max_ckpts > 0
            ? std::max<std::size_t>(1, n_ops / static_cast<std::size_t>(
                                            max_ckpts + 1))
            : n_ops + 1;
    std::vector<std::size_t> boundaries;    // prefix[j] = state after
    std::vector<qsim::StateVector> prefix;  //   ops [0, boundaries[j])
    qsim::StateVector sweep(program.dense_qubits());
    for (std::size_t i = 0; i < n_ops; ++i) {
      if (i > 0 && i % stride == 0 &&
          prefix.size() < static_cast<std::size_t>(max_ckpts)) {
        boundaries.push_back(i);
        prefix.push_back(sweep);
      }
      program.apply_step(sweep, i);
    }
    const qsim::StateVector& ideal_final = sweep;

    // Phase C: the shot loop. Threads own private states and histograms;
    // integer merges commute, so the merged counts are order-independent.
    // A std::mutex (not `omp critical`) guards the merge so ThreadSanitizer
    // can see the lock (libgomp's critical locks are invisible to it).
    std::mutex merge_mutex;
#pragma omp parallel if (shots > 1)
    {
      qsim::StateVector state(program.dense_qubits());
      qsim::Counts local;
#pragma omp for schedule(dynamic)
      for (std::int64_t s = 0; s < shot_count; ++s) {
        Rng shot_rng = shot_rngs[static_cast<std::size_t>(s)];
        const auto& insertions = realizations[static_cast<std::size_t>(s)];
        std::uint64_t dense = 0;
        if (insertions.empty()) {
          dense = ideal_final.sample_one(shot_rng);
        } else {
          const std::size_t first = insertions.front().op_index;
          const auto it = std::upper_bound(boundaries.begin(),
                                           boundaries.end(), first);
          std::size_t start = 0;
          if (it == boundaries.begin()) {
            state.reset();
          } else {
            const auto j =
                static_cast<std::size_t>(it - boundaries.begin() - 1);
            state = prefix[j];
            start = boundaries[j];
          }
          program.run_range(state, start, insertions);
          dense = state.sample_one(shot_rng);
        }
        const std::uint64_t noisy = readout.corrupt(dense, shot_rng);
        local.add(circuit::compact_outcome(noisy, dense_measured));
      }
      {
        const std::lock_guard<std::mutex> lock(merge_mutex);
        result.counts.merge(local);
      }
    }
    if (observer != nullptr) {
      // Batch progress is derived from the serially pre-drawn realizations
      // and emitted here, after the parallel region, in batch order — so
      // the callback sequence never depends on OpenMP scheduling.
      for (std::size_t first = 0, batch = 0; first < shots;
           first += kExecBatchShots, ++batch) {
        const std::size_t in_batch = std::min(kExecBatchShots, shots - first);
        std::size_t errored = 0;
        for (std::size_t s = first; s < first + in_batch; ++s)
          if (!realizations[s].empty()) ++errored;
        observer->on_shot_batch(batch, first, in_batch, errored,
                                static_cast<double>(first + in_batch) *
                                    per_shot);
      }
    }
    return result;
  }

  // Global-depolarizing surrogate: fold gate errors into a single success
  // probability over the ideal distribution (readout handled per bit).
  double gate_process_product = 1.0;
  for (const auto& op : circuit.ops())
    gate_process_product *= gate_process_fidelity(op);

  qsim::StateVector state(program.dense_qubits());
  program.run_ideal(state);
  const auto samples = state.sample(shots, rng);
  const std::uint64_t dense_dim = std::uint64_t{1} << program.dense_qubits();
  std::size_t batch = 0;
  std::size_t batch_errored = 0;
  for (std::size_t s = 0; s < samples.size(); ++s) {
    std::uint64_t outcome = samples[s];
    if (!rng.bernoulli(gate_process_product)) {
      outcome = rng.uniform_index(dense_dim);
      ++batch_errored;
    }
    outcome = readout.corrupt(outcome, rng);
    result.counts.add(
        circuit::compact_outcome(outcome, program.dense_measured()));
    // This loop is serial, so per-batch emission here is deterministic.
    if ((s + 1) % kExecBatchShots == 0 || s + 1 == samples.size()) {
      if (observer != nullptr)
        observer->on_shot_batch(batch, batch * kExecBatchShots,
                                s + 1 - batch * kExecBatchShots,
                                batch_errored,
                                static_cast<double>(s + 1) * per_shot);
      ++batch;
      batch_errored = 0;
    }
  }
  return result;
}

}  // namespace hpcqc::device
