#include "hpcqc/verify/harness.hpp"

#include <exception>
#include <iomanip>
#include <sstream>

#include "hpcqc/circuit/text.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/mqss/template.hpp"

namespace hpcqc::verify {

mqss::CompiledProgram run_pipeline(const mqss::PassManager& pipeline,
                                   const circuit::Circuit& circuit,
                                   const qdmi::DeviceInterface& device) {
  expects(circuit.num_qubits() <= device.num_qubits(),
          "run_pipeline: circuit does not fit the device");
  mqss::CompilationUnit unit;
  unit.circuit = circuit;
  unit.dialect = mqss::Dialect::kCore;
  pipeline.run(unit, device);

  mqss::CompiledProgram program;
  program.native_circuit = std::move(unit.circuit);
  program.initial_layout = std::move(unit.layout);
  program.pass_trace = std::move(unit.trace);
  program.native_gate_count = program.native_circuit.gate_count();
  program.swap_count = unit.swaps_inserted;
  return program;
}

CompileFn standard_compile(const qdmi::DeviceInterface& device,
                           const mqss::CompilerOptions& options) {
  return [&device, options](const circuit::Circuit& circuit) {
    return mqss::compile(circuit, device, options);
  };
}

std::string Counterexample::describe() const {
  std::ostringstream os;
  os << "fuzz counterexample (replay: verify_cli --seed=0x" << std::hex
     << seed << std::dec << ")\n"
     << "  original: " << original.num_qubits() << " qubits, "
     << original.gate_count() << " gates; shrunk: " << shrunk.num_qubits()
     << " qubits, " << shrunk.gate_count() << " gates\n"
     << "  failure: "
     << (failure.detail.empty() ? "compile threw" : failure.detail) << "\n"
     << "  shrunk circuit:\n";
  std::istringstream lines(circuit::to_text(shrunk));
  for (std::string line; std::getline(lines, line);)
    os << "    " << line << "\n";
  return os.str();
}

namespace {

/// Oracle verdict for one circuit; a throwing compile is a failure whose
/// detail carries the exception text.
EquivalenceResult judge(const circuit::Circuit& circuit,
                        const CompileFn& compile, double tol,
                        FrameTolerance frame) {
  try {
    const mqss::CompiledProgram program = compile(circuit);
    return compiled_equivalent(circuit, program, frame, tol);
  } catch (const std::exception& e) {
    EquivalenceResult result;
    result.equivalent = false;
    result.max_deviation = 1.0;
    result.detail = std::string("compile threw: ") + e.what();
    return result;
  }
}

}  // namespace

FuzzReport run_equivalence_fuzz(const CircuitFuzzer& fuzzer,
                                std::uint64_t first_seed,
                                std::size_t num_seeds,
                                const CompileFn& compile, double tol,
                                FrameTolerance frame) {
  FuzzReport report;
  for (std::size_t i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + i;
    const circuit::Circuit circuit = fuzzer.generate(seed);
    const EquivalenceResult verdict = judge(circuit, compile, tol, frame);
    ++report.seeds_run;
    if (verdict.equivalent) continue;
    ++report.failures;
    report.failing_seeds.push_back(seed);
    if (!report.first_counterexample) {
      Counterexample example;
      example.seed = seed;
      example.original = circuit;
      example.shrunk = shrink(circuit, [&](const circuit::Circuit& c) {
        return !judge(c, compile, tol, frame).equivalent;
      });
      example.failure = judge(example.shrunk, compile, tol, frame);
      report.first_counterexample = std::move(example);
    }
  }
  return report;
}

ParametrizedCase parametrize(const circuit::Circuit& circuit) {
  ParametrizedCase result{circuit::ParametricCircuit(circuit.num_qubits()), {}};
  std::size_t next = 0;
  for (const auto& op : circuit.ops()) {
    circuit::ParametricOperation lifted;
    lifted.kind = op.kind;
    lifted.qubits = op.qubits;
    for (const double value : op.params) {
      // Zero-padded names keep parameters() (sorted) in creation order.
      std::ostringstream name;
      name << "p" << std::setw(4) << std::setfill('0') << next++;
      result.binding.emplace(name.str(), value);
      lifted.params.push_back(circuit::ParamExpr::symbol(name.str()));
    }
    result.circuit.append(std::move(lifted));
  }
  return result;
}

BindFuzzReport run_bind_equivalence_fuzz(const CircuitFuzzer& fuzzer,
                                         std::uint64_t first_seed,
                                         std::size_t num_seeds,
                                         const qdmi::DeviceInterface& device,
                                         const mqss::CompilerOptions& options,
                                         double tol) {
  BindFuzzReport report;
  for (std::size_t i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + i;
    const circuit::Circuit circuit = fuzzer.generate(seed);
    ++report.seeds_run;
    std::string detail;
    try {
      const ParametrizedCase lifted = parametrize(circuit);
      const mqss::CompiledTemplate tmpl =
          mqss::compile_template(lifted.circuit, device, options);
      report.slots_patched += tmpl.slots.size();

      // Binding 1: the original angles — must match a cold compile of the
      // source circuit itself.
      const EquivalenceResult at_source = compiled_equivalent(
          circuit, tmpl.bind(lifted.binding), FrameTolerance::kOutputZFrame,
          tol);
      if (!at_source.equivalent)
        detail = "bind at source angles: " + at_source.detail;

      // Binding 2: a deterministic shift of every angle — the same cached
      // structure must stay correct at a binding it was never compiled at.
      if (detail.empty() && !lifted.binding.empty()) {
        std::map<std::string, double> shifted = lifted.binding;
        double delta = 0.377;
        for (auto& [name, value] : shifted) {
          value += delta;
          delta += 0.211;
        }
        const EquivalenceResult at_shifted = compiled_equivalent(
            lifted.circuit.bind(shifted), tmpl.bind(shifted),
            FrameTolerance::kOutputZFrame, tol);
        if (!at_shifted.equivalent)
          detail = "bind at shifted angles: " + at_shifted.detail;
      }
    } catch (const std::exception& e) {
      detail = std::string("compile/bind threw: ") + e.what();
    }
    if (detail.empty()) continue;
    ++report.failures;
    report.failing_seeds.push_back(seed);
    if (report.failure_details.size() < 8)
      report.failure_details.push_back("seed " + std::to_string(seed) + ": " +
                                       detail);
  }
  return report;
}

namespace {

/// Restores the model to all-healthy on scope exit, whatever the oracle or
/// the compiler throw mid-run.
class HealthRestorer {
public:
  explicit HealthRestorer(device::DeviceModel& model) : model_(&model) {}
  ~HealthRestorer() {
    model_->set_health(device::HealthMask(model_->topology()));
  }
  HealthRestorer(const HealthRestorer&) = delete;
  HealthRestorer& operator=(const HealthRestorer&) = delete;

private:
  device::DeviceModel* model_;
};

/// Random mask with each element independently down with `down_probability`.
device::HealthMask draw_mask(const device::Topology& topology, Rng& rng,
                             double down_probability) {
  device::HealthMask mask(topology);
  for (int q = 0; q < topology.num_qubits(); ++q)
    if (rng.bernoulli(down_probability)) mask.set_qubit(q, false);
  for (int e = 0; e < topology.num_edges(); ++e)
    if (rng.bernoulli(down_probability)) mask.set_coupler(e, false);
  return mask;
}

/// QDMI view that overrides only the kOperational bits from its own mask
/// and forwards everything else — crucially *without* bumping the inner
/// device's calibration epoch. This models a telemetry sensor flipping
/// health bits underneath a compile cache: a cache keyed on epoch alone
/// would keep serving the healthy-topology program.
class MaskOverlayDevice final : public qdmi::DeviceInterface {
public:
  MaskOverlayDevice(const qdmi::DeviceInterface& inner,
                    const device::Topology& topology)
      : inner_(&inner), topology_(&topology), mask_(topology) {}

  void set_mask(device::HealthMask mask) { mask_ = std::move(mask); }

  std::string name() const override { return inner_->name(); }
  int num_qubits() const override { return inner_->num_qubits(); }
  std::vector<std::pair<int, int>> coupling_map() const override {
    return inner_->coupling_map();
  }
  std::vector<std::string> native_gates() const override {
    return inner_->native_gates();
  }
  double qubit_property(qdmi::QubitProperty prop, int qubit) const override {
    if (prop == qdmi::QubitProperty::kOperational)
      return mask_.qubit_up(qubit) ? 1.0 : 0.0;
    return inner_->qubit_property(prop, qubit);
  }
  double coupler_property(qdmi::CouplerProperty prop, int a,
                          int b) const override {
    if (prop == qdmi::CouplerProperty::kOperational)
      return mask_.coupler_usable(*topology_, topology_->edge_index(a, b))
                 ? 1.0
                 : 0.0;
    return inner_->coupler_property(prop, a, b);
  }
  double device_property(qdmi::DeviceProperty prop) const override {
    return inner_->device_property(prop);
  }
  qdmi::DeviceStatus status() const override { return inner_->status(); }

private:
  const qdmi::DeviceInterface* inner_;
  const device::Topology* topology_;
  device::HealthMask mask_;
};

std::size_t masked_element_count(const device::Topology& topology,
                                 const device::HealthMask& mask) {
  std::size_t down = 0;
  for (int q = 0; q < topology.num_qubits(); ++q)
    if (!mask.qubit_up(q)) ++down;
  for (int e = 0; e < topology.num_edges(); ++e)
    if (!mask.coupler_up(e)) ++down;
  return down;
}

/// The degraded-serving oracle: compile must succeed, stay on the healthy
/// subgraph, and preserve the unitary. Ordered so the mask-legality checks
/// run first — an illegal-but-equivalent compilation is still a bug.
EquivalenceResult masked_judge(const circuit::Circuit& circuit,
                               const qdmi::DeviceInterface& device,
                               const mqss::CompilerOptions& options,
                               const device::Topology& topology,
                               const device::HealthMask& mask, double tol) {
  const auto fail = [](std::string detail) {
    EquivalenceResult result;
    result.equivalent = false;
    result.max_deviation = 1.0;
    result.detail = std::move(detail);
    return result;
  };
  try {
    const mqss::CompiledProgram program =
        mqss::compile(circuit, device, options);
    for (const int q : program.initial_layout)
      if (!mask.qubit_up(q))
        return fail("initial layout places a virtual qubit on masked "
                    "physical qubit " +
                    std::to_string(q));
    if (!mask.circuit_legal(topology, program.native_circuit))
      return fail("compiled circuit touches a masked qubit or an unusable "
                  "coupler");
    return compiled_equivalent(circuit, program,
                               FrameTolerance::kOutputZFrame, tol);
  } catch (const std::exception& e) {
    return fail(std::string("compile threw: ") + e.what());
  }
}

}  // namespace

MaskedFuzzReport run_masked_topology_fuzz(
    const CircuitFuzzer& fuzzer, std::uint64_t first_seed,
    std::size_t num_seeds, device::DeviceModel& model,
    const qdmi::DeviceInterface& device, const mqss::CompilerOptions& options,
    double down_probability, double tol) {
  expects(down_probability >= 0.0 && down_probability < 1.0,
          "run_masked_topology_fuzz: down_probability must be in [0, 1)");
  const device::Topology& topology = model.topology();
  const HealthRestorer restore(model);

  // Stale-mask regression rig: one cache-enabled service over an overlay
  // view whose health bits flip without any epoch bump. Persistent across
  // seeds so the cache accumulates entries the mask flips must invalidate.
  MaskOverlayDevice overlay(device, topology);
  Rng service_rng(first_seed ^ 0x7374616c65ULL);
  mqss::QpuService stale_service(model, overlay, service_rng, options);

  MaskedFuzzReport report;
  for (std::size_t i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + i;
    const circuit::Circuit circuit = fuzzer.generate(seed);

    // The mask stream is independent of the circuit stream: the same seed
    // replays the same (circuit, mask) pair. Masks whose largest healthy
    // component cannot hold the circuit are redrawn (the compiler is
    // *supposed* to refuse those — that refusal has its own directed
    // tests); after a bounded number of redraws fall back to all-healthy.
    Rng mask_rng(seed ^ 0x6d61736b6d61736bULL);
    device::HealthMask mask(topology);
    for (int attempt = 0; attempt < 64; ++attempt) {
      device::HealthMask candidate =
          draw_mask(topology, mask_rng, down_probability);
      if (static_cast<int>(candidate.largest_component(topology).size()) >=
          circuit.num_qubits()) {
        mask = std::move(candidate);
        break;
      }
      ++report.masks_redrawn;
    }
    report.masked_elements += masked_element_count(topology, mask);

    // Stale-mask check: compile warm against an all-healthy view, flip the
    // overlay's health bits (no epoch bump), compile again through the same
    // cache. The cache must miss — its key folds in the health fingerprint
    // — and the recompiled program must be legal under the new mask.
    if (!mask.all_healthy()) {
      ++report.stale_mask_checks;
      bool stale_ok = false;
      try {
        overlay.set_mask(device::HealthMask(topology));
        (void)stale_service.compile_only(circuit);
        const std::uint64_t misses_before = stale_service.cache_stats().misses;
        overlay.set_mask(mask);
        const mqss::CompiledProgram remasked =
            stale_service.compile_only(circuit);
        bool layout_healthy = true;
        for (const int q : remasked.initial_layout)
          if (!mask.qubit_up(q)) layout_healthy = false;
        stale_ok = stale_service.cache_stats().misses > misses_before &&
                   layout_healthy &&
                   mask.circuit_legal(topology, remasked.native_circuit);
      } catch (const std::exception&) {
        stale_ok = false;
      }
      if (!stale_ok) {
        ++report.stale_mask_failures;
        ++report.failures;
        report.failing_seeds.push_back(seed);
      }
    }

    model.set_health(mask);

    const EquivalenceResult verdict =
        masked_judge(circuit, device, options, topology, mask, tol);
    ++report.seeds_run;
    if (verdict.equivalent) continue;
    ++report.failures;
    report.failing_seeds.push_back(seed);
    if (!report.first_counterexample) {
      Counterexample example;
      example.seed = seed;
      example.original = circuit;
      example.shrunk = shrink(circuit, [&](const circuit::Circuit& c) {
        return !masked_judge(c, device, options, topology, mask, tol)
                    .equivalent;
      });
      example.failure =
          masked_judge(example.shrunk, device, options, topology, mask, tol);
      report.first_counterexample = std::move(example);
    }
  }
  return report;
}

}  // namespace hpcqc::verify
