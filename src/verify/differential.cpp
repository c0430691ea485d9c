#include "hpcqc/verify/differential.hpp"

#include "hpcqc/circuit/execute.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/qsim/density_matrix.hpp"

namespace hpcqc::verify {

std::vector<double> exact_noisy_distribution(
    const device::CompiledProgram& program,
    const qsim::ReadoutError& dense_readout) {
  const int n = program.dense_qubits();
  expects(n <= 10, "exact_noisy_distribution: capped at 10 dense qubits");
  expects(dense_readout.num_qubits() == n,
          "exact_noisy_distribution: readout must index dense qubits");

  qsim::DensityMatrix rho(n);
  for (std::size_t i = 0; i < program.ops().size(); ++i) {
    program.apply_step(rho, i);
    const auto& op = program.ops()[i];
    if (op.error_prob <= 0.0) continue;
    if (op.kind == device::CompiledOp::Kind::kFused1q)
      rho.apply_depolarizing(op.q0, op.error_prob);
    else
      rho.apply_depolarizing_2q(op.q0, op.q1, op.error_prob);
  }

  // Readout confusion, applied analytically per qubit axis: the classical
  // stochastic map [[1-a, b], [a, 1-b]] on the diagonal.
  std::vector<double> probs = rho.probabilities();
  for (int q = 0; q < n; ++q) {
    const auto& confusion = dense_readout.qubit(q);
    const double a = confusion.p_read1_given0;
    const double b = confusion.p_read0_given1;
    const std::uint64_t stride = std::uint64_t{1} << q;
    for (std::uint64_t base = 0; base < probs.size(); ++base) {
      if (base & stride) continue;
      const double p0 = probs[base];
      const double p1 = probs[base | stride];
      probs[base] = (1.0 - a) * p0 + b * p1;
      probs[base | stride] = a * p0 + (1.0 - b) * p1;
    }
  }

  // Marginalize onto the measured bits, in compaction order.
  const auto& measured = program.dense_measured();
  std::vector<double> marginal(std::size_t{1} << measured.size(), 0.0);
  for (std::uint64_t full = 0; full < probs.size(); ++full)
    marginal[circuit::compact_outcome(full, measured)] += probs[full];
  return marginal;
}

qsim::ReadoutError dense_readout_for(const device::DeviceModel& device,
                                     const device::CompiledProgram& program) {
  const qsim::ReadoutError full = device.readout_error();
  std::vector<qsim::ReadoutConfusion> dense;
  dense.reserve(program.active_qubits().size());
  for (int q : program.active_qubits()) dense.push_back(full.qubit(q));
  return qsim::ReadoutError(std::move(dense));
}

DifferentialReport differential_check(device::DeviceModel& device,
                                      const circuit::Circuit& circuit,
                                      std::size_t shots, Rng& rng,
                                      double alpha, double delta) {
  const device::CompiledProgram program(circuit, device.topology(),
                                        device.calibration());
  DifferentialReport report;
  report.exact = exact_noisy_distribution(program,
                                          dense_readout_for(device, program));
  const auto result = device.execute(circuit, shots, rng,
                                     device::ExecutionMode::kTrajectory);
  report.chi_squared = chi_squared_test(result.counts, report.exact, alpha);
  report.tvd = check_tvd(result.counts, report.exact, delta);
  return report;
}

}  // namespace hpcqc::verify
