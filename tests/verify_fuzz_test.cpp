// The metamorphic fuzz tier: seeded random circuits compiled through every
// compiler option combination must stay layout-aware unitary-equivalent to
// their source. Also the harness's mutation check — a deliberately broken
// routing pass must be caught by the oracle and shrunk to a minimal
// counterexample — and bit-identical replay across OpenMP thread counts.
//
// Seed budget: 25 seeds per option set (8 sets = 200 seeds) by default;
// nightly CI raises it via HPCQC_FUZZ_SEEDS (seeds per option set).

#include <gtest/gtest.h>
#include <omp.h>

#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/mqss/compiler.hpp"
#include "hpcqc/mqss/template.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/verify/harness.hpp"

namespace hpcqc::verify {
namespace {

std::size_t seeds_per_config() {
  if (const char* env = std::getenv("HPCQC_FUZZ_SEEDS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 25;
}

/// Delegates to the real router, then silently drops the last inserted
/// SWAP — the kind of off-by-one a routing rewrite can introduce. The
/// equivalence oracle must catch it (distribution tests on symmetric
/// states often cannot).
class BrokenRoutingPass final : public mqss::Pass {
public:
  std::string name() const override { return "route-broken"; }

  void run(mqss::CompilationUnit& unit,
           const qdmi::DeviceInterface& device) const override {
    const std::size_t swaps_before =
        count_swaps(unit.circuit);  // source circuits may contain SWAPs
    mqss::RoutingPass(false).run(unit, device);
    if (unit.swaps_inserted == 0) return;
    circuit::Circuit corrupted(unit.circuit.num_qubits());
    std::size_t swaps_seen = 0;
    const std::size_t last_inserted = swaps_before + unit.swaps_inserted;
    for (const auto& op : unit.circuit.ops()) {
      if (op.kind == circuit::OpKind::kSwap &&
          ++swaps_seen == last_inserted) {
        continue;  // drop it
      }
      corrupted.append(op);
    }
    unit.circuit = std::move(corrupted);
  }

private:
  static std::size_t count_swaps(const circuit::Circuit& c) {
    std::size_t n = 0;
    for (const auto& op : c.ops())
      if (op.kind == circuit::OpKind::kSwap) ++n;
    return n;
  }
};

class FuzzTest : public ::testing::Test {
protected:
  FuzzTest()
      : rng_(17),
        device_(device::make_grid("fuzz-2x3", 2, 3, device::DeviceSpec{},
                                  device::DriftParams{}, rng_)),
        qdmi_(device_, clock_) {}

  Rng rng_;
  SimClock clock_;
  device::DeviceModel device_;
  qdmi::ModelBackedDevice qdmi_;
};

TEST_F(FuzzTest, StandardPipelineSurvivesEveryOptionCombination) {
  const CircuitFuzzer fuzzer;  // 2..5 qubits, full gate vocabulary
  const std::size_t per_config = seeds_per_config();
  std::size_t total_seeds = 0;
  std::uint64_t base_seed = 0;
  for (const auto placement : {mqss::PlacementStrategy::kStatic,
                               mqss::PlacementStrategy::kFidelityAware}) {
    for (const bool optimize : {false, true}) {
      for (const bool fidelity_routing : {false, true}) {
        const mqss::CompilerOptions options{placement, optimize,
                                            fidelity_routing};
        const auto report = run_equivalence_fuzz(
            fuzzer, base_seed, per_config, standard_compile(qdmi_, options));
        total_seeds += report.seeds_run;
        EXPECT_EQ(report.failures, 0u)
            << "placement=" << mqss::to_string(placement)
            << " optimize=" << optimize << " routing=" << fidelity_routing
            << "\n"
            << (report.first_counterexample
                    ? report.first_counterexample->describe()
                    : std::string("(no counterexample captured)"));
        base_seed += per_config;
      }
    }
  }
  // The tier-1 budget the README promises: at least 200 seeds per run.
  EXPECT_GE(total_seeds, 8 * per_config);
}

TEST_F(FuzzTest, ReportIsBitIdenticalAcrossThreadCounts) {
  const CircuitFuzzer fuzzer;
  const auto run_once = [&] {
    return run_equivalence_fuzz(fuzzer, 9000, 12,
                                standard_compile(qdmi_, {}));
  };
  omp_set_num_threads(1);
  const auto serial = run_once();
  omp_set_num_threads(omp_get_num_procs());
  const auto parallel = run_once();
  EXPECT_EQ(serial.seeds_run, parallel.seeds_run);
  EXPECT_EQ(serial.failures, parallel.failures);
  EXPECT_EQ(serial.failing_seeds, parallel.failing_seeds);
  EXPECT_EQ(serial.failures, 0u);
}

TEST_F(FuzzTest, BrokenRoutingIsCaughtAndShrunk) {
  // Bias the fuzzer toward two-qubit traffic so static placement on the
  // 2x3 grid regularly needs SWAP routing (the thing we broke).
  FuzzerConfig config;
  config.min_qubits = 3;
  config.max_qubits = 5;
  config.min_ops = 4;
  config.max_ops = 20;
  config.vocabulary = {circuit::OpKind::kCx, circuit::OpKind::kCz,
                       circuit::OpKind::kSwap, circuit::OpKind::kH,
                       circuit::OpKind::kRx};
  const CircuitFuzzer fuzzer(config);

  const CompileFn broken = [this](const circuit::Circuit& circuit) {
    mqss::PassManager pipeline;
    pipeline.add(std::make_unique<mqss::PlacementPass>(
        mqss::PlacementStrategy::kStatic));
    pipeline.add(std::make_unique<BrokenRoutingPass>());
    pipeline.add(std::make_unique<mqss::NativeDecompositionPass>());
    return run_pipeline(pipeline, circuit, qdmi_);
  };

  const auto report = run_equivalence_fuzz(fuzzer, 100, 60, broken);
  EXPECT_GT(report.failures, 0u)
      << "the mutation check lost its teeth: a routing pass that drops a "
         "SWAP sailed through 60 fuzz seeds";
  ASSERT_TRUE(report.first_counterexample.has_value());
  const auto& ce = *report.first_counterexample;
  std::cout << ce.describe();

  EXPECT_LE(ce.shrunk.gate_count(), ce.original.gate_count());
  EXPECT_LE(ce.shrunk.num_qubits(), ce.original.num_qubits());
  EXPECT_GE(ce.shrunk.two_qubit_gate_count(), 1u);

  // The shrunk circuit is a genuine counterexample: recompiling it through
  // the broken pipeline still fails the oracle.
  const auto replay = compiled_equivalent(ce.shrunk, broken(ce.shrunk));
  EXPECT_FALSE(replay);
}

TEST_F(FuzzTest, BindPatchingMatchesColdCompileForEveryOptionCombination) {
  // The two-phase equivalence contract: structure-compile once, bind-patch
  // at two bindings, and each result must match a cold compile of the
  // bound source up to kOutputZFrame — for every placement x optimize x
  // routing combination.
  const CircuitFuzzer fuzzer;
  const std::size_t per_config = seeds_per_config();
  std::size_t total_slots = 0;
  std::uint64_t base_seed = 0;
  for (const auto placement : {mqss::PlacementStrategy::kStatic,
                               mqss::PlacementStrategy::kFidelityAware}) {
    for (const bool optimize : {false, true}) {
      for (const bool fidelity_routing : {false, true}) {
        const mqss::CompilerOptions options{placement, optimize,
                                            fidelity_routing};
        const auto report = run_bind_equivalence_fuzz(fuzzer, base_seed,
                                                      per_config, qdmi_,
                                                      options);
        total_slots += report.slots_patched;
        EXPECT_EQ(report.failures, 0u)
            << "placement=" << mqss::to_string(placement)
            << " optimize=" << optimize << " routing=" << fidelity_routing
            << "\n"
            << (report.failure_details.empty()
                    ? std::string("(no details captured)")
                    : report.failure_details.front());
        base_seed += per_config;
      }
    }
  }
  // The fuzz must have exercised the bind phase, not just zero-slot
  // templates.
  EXPECT_GT(total_slots, 0u);
}

TEST_F(FuzzTest, LiteralTemplateBindsToTheColdCompileExactly) {
  // compile() and compile_template() run one lowering, so a template whose
  // angles are all literals binds to exactly the cold compile's program:
  // the same ops and angle bits, layout, pass trace and per-pass gate
  // counts, not only a program equal up to the output-Z frame.
  const CircuitFuzzer fuzzer;
  const std::size_t per_config = seeds_per_config();
  std::uint64_t seed = 0;
  for (const auto placement : {mqss::PlacementStrategy::kStatic,
                               mqss::PlacementStrategy::kFidelityAware}) {
    for (const bool optimize : {false, true}) {
      for (const bool fidelity_routing : {false, true}) {
        const mqss::CompilerOptions options{placement, optimize,
                                            fidelity_routing};
        std::size_t mismatches = 0;
        std::uint64_t first_mismatch = 0;
        for (std::size_t i = 0; i < per_config; ++i, ++seed) {
          const circuit::Circuit source = fuzzer.generate(seed);
          circuit::ParametricCircuit lifted(source.num_qubits());
          for (const auto& op : source.ops()) {
            circuit::ParametricOperation literal{op.kind, op.qubits, {}};
            for (const double value : op.params)
              literal.params.push_back(circuit::ParamExpr::literal(value));
            lifted.append(std::move(literal));
          }
          const mqss::CompiledProgram cold =
              mqss::compile(source, qdmi_, options);
          const mqss::CompiledProgram bound =
              mqss::compile_template(lifted, qdmi_, options).bind({});
          if (bound.native_circuit == cold.native_circuit &&
              bound.initial_layout == cold.initial_layout &&
              bound.pass_trace == cold.pass_trace &&
              bound.pass_gate_counts == cold.pass_gate_counts &&
              bound.swap_count == cold.swap_count)
            continue;
          if (mismatches++ == 0) first_mismatch = seed;
        }
        EXPECT_EQ(mismatches, 0u)
            << "placement=" << mqss::to_string(placement)
            << " optimize=" << optimize << " routing=" << fidelity_routing
            << ", first at seed " << first_mismatch;
      }
    }
  }
}

TEST_F(FuzzTest, ParametrizeRoundTripsTheSourceCircuit) {
  const CircuitFuzzer fuzzer;
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const circuit::Circuit original = fuzzer.generate(seed);
    const ParametrizedCase lifted = parametrize(original);
    EXPECT_EQ(lifted.circuit.bind(lifted.binding), original);
    EXPECT_EQ(lifted.circuit.parameters().size(), lifted.binding.size());
  }
}

TEST_F(FuzzTest, CleanPipelinePassesTheMutationFuzzConfiguration) {
  // Same biased configuration and seeds as the mutation check, but with
  // the honest router: proves the failures above come from the mutation,
  // not from the configuration.
  FuzzerConfig config;
  config.min_qubits = 3;
  config.max_qubits = 5;
  config.min_ops = 4;
  config.max_ops = 20;
  config.vocabulary = {circuit::OpKind::kCx, circuit::OpKind::kCz,
                       circuit::OpKind::kSwap, circuit::OpKind::kH,
                       circuit::OpKind::kRx};
  const CircuitFuzzer fuzzer(config);
  const mqss::CompilerOptions options{mqss::PlacementStrategy::kStatic,
                                      false, false};
  const auto report = run_equivalence_fuzz(
      fuzzer, 100, 60, standard_compile(qdmi_, options));
  EXPECT_EQ(report.failures, 0u)
      << (report.first_counterexample ? report.first_counterexample->describe()
                                      : std::string());
}

}  // namespace
}  // namespace hpcqc::verify
