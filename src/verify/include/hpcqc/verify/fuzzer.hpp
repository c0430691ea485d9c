#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"

namespace hpcqc::verify {

/// Shape of the random circuits the fuzzer emits. The defaults target the
/// compiler oracle: small registers (so full unitaries stay cheap) and the
/// complete frontend gate vocabulary. Every circuit ends in a measurement
/// of every qubit: the compiled-equivalence oracle reads the final wire
/// permutation off the compiled measure op.
struct FuzzerConfig {
  int min_qubits = 2;
  int max_qubits = 5;
  int min_ops = 1;
  int max_ops = 40;
  /// Gate kinds drawn from (barrier/measure are handled separately).
  /// Empty = every gate in the frontend vocabulary.
  std::vector<circuit::OpKind> vocabulary;
  /// Probability of an op slot becoming a barrier.
  double barrier_prob = 0.02;
};

/// Seeded random generator of core-dialect circuits. The entire circuit is
/// a pure function of (config, seed): the same `uint64_t` replays the same
/// circuit forever, which is what makes fuzz failures reportable as a
/// single number (`verify_cli --seed=0x...`).
class CircuitFuzzer {
public:
  explicit CircuitFuzzer(FuzzerConfig config = {});

  const FuzzerConfig& config() const { return config_; }

  /// Deterministic circuit for `seed`.
  circuit::Circuit generate(std::uint64_t seed) const;

private:
  FuzzerConfig config_;
};

/// Greedy shrinking: starting from a failing circuit, repeatedly drops
/// single ops and then whole qubits (remapping indices down) while
/// `still_fails` keeps returning true, until no single removal reproduces
/// the failure. The result is a locally-minimal counterexample. Terminal
/// measurements are preserved (the oracle needs them).
circuit::Circuit shrink(
    const circuit::Circuit& failing,
    const std::function<bool(const circuit::Circuit&)>& still_fails);

/// One shrink step: the circuit without op `index` (measure ops are kept by
/// shrink() itself; this is exposed for tests).
circuit::Circuit remove_op(const circuit::Circuit& c, std::size_t index);

/// One shrink step: drops qubit `q` — ops touching it vanish, higher
/// indices shift down, explicit measure lists lose the qubit. Requires at
/// least two qubits.
circuit::Circuit remove_qubit(const circuit::Circuit& c, int q);

}  // namespace hpcqc::verify
