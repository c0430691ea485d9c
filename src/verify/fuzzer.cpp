#include "hpcqc/verify/fuzzer.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"
#include "hpcqc/common/rng.hpp"

namespace hpcqc::verify {

using circuit::Circuit;
using circuit::Operation;
using circuit::OpKind;

namespace {

std::vector<OpKind> default_vocabulary() {
  return {OpKind::kI,   OpKind::kX,    OpKind::kY,     OpKind::kZ,
          OpKind::kH,   OpKind::kS,    OpKind::kSdg,   OpKind::kT,
          OpKind::kTdg, OpKind::kSx,   OpKind::kRx,    OpKind::kRy,
          OpKind::kRz,  OpKind::kU,    OpKind::kPrx,   OpKind::kCz,
          OpKind::kCx,  OpKind::kSwap, OpKind::kIswap, OpKind::kCphase};
}

}  // namespace

CircuitFuzzer::CircuitFuzzer(FuzzerConfig config) : config_(std::move(config)) {
  expects(config_.min_qubits >= 1 && config_.max_qubits >= config_.min_qubits,
          "CircuitFuzzer: bad qubit range");
  expects(config_.min_ops >= 0 && config_.max_ops >= config_.min_ops,
          "CircuitFuzzer: bad op range");
  expects(config_.barrier_prob >= 0.0 && config_.barrier_prob < 1.0,
          "CircuitFuzzer: barrier_prob must be in [0, 1)");
  if (config_.vocabulary.empty()) config_.vocabulary = default_vocabulary();
  for (OpKind kind : config_.vocabulary)
    expects(kind != OpKind::kBarrier && kind != OpKind::kMeasure,
            "CircuitFuzzer: vocabulary must contain gates only");
}

Circuit CircuitFuzzer::generate(std::uint64_t seed) const {
  // Decorrelate adjacent seeds (0, 1, 2, ... is the common CLI usage).
  std::uint64_t sm = seed;
  Rng rng(splitmix64(sm));

  const int num_qubits =
      config_.min_qubits +
      static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(
          config_.max_qubits - config_.min_qubits + 1)));
  const std::size_t num_ops =
      static_cast<std::size_t>(config_.min_ops) +
      rng.uniform_index(
          static_cast<std::uint64_t>(config_.max_ops - config_.min_ops + 1));

  // On a single qubit only 1q gates are drawable.
  std::vector<OpKind> vocabulary;
  for (OpKind kind : config_.vocabulary)
    if (num_qubits >= 2 || !circuit::op_is_two_qubit(kind))
      vocabulary.push_back(kind);
  expects(!vocabulary.empty(), "CircuitFuzzer: empty effective vocabulary");

  Circuit c(num_qubits);
  for (std::size_t i = 0; i < num_ops; ++i) {
    if (rng.bernoulli(config_.barrier_prob)) {
      c.barrier();
      continue;
    }
    const OpKind kind = vocabulary[rng.uniform_index(vocabulary.size())];
    Operation op;
    op.kind = kind;
    const int q0 = static_cast<int>(
        rng.uniform_index(static_cast<std::uint64_t>(num_qubits)));
    op.qubits.push_back(q0);
    if (circuit::op_is_two_qubit(kind)) {
      int q1 = static_cast<int>(rng.uniform_index(
          static_cast<std::uint64_t>(num_qubits - 1)));
      if (q1 >= q0) ++q1;  // uniform over qubits != q0
      op.qubits.push_back(q1);
    }
    for (int p = 0; p < circuit::op_param_count(kind); ++p)
      op.params.push_back(rng.uniform(-2.0 * M_PI, 2.0 * M_PI));
    c.append(std::move(op));
  }
  c.measure();
  return c;
}

Circuit remove_op(const Circuit& c, std::size_t index) {
  expects(index < c.size(), "remove_op: index out of range");
  Circuit out(c.num_qubits());
  for (std::size_t i = 0; i < c.size(); ++i)
    if (i != index) out.append(c.ops()[i]);
  return out;
}

Circuit remove_qubit(const Circuit& c, int q) {
  expects(c.num_qubits() >= 2, "remove_qubit: need at least two qubits");
  expects(q >= 0 && q < c.num_qubits(), "remove_qubit: qubit out of range");
  Circuit out(c.num_qubits() - 1);
  for (const auto& op : c.ops()) {
    if (op.kind == OpKind::kMeasure) {
      Operation measure = op;  // empty list stays measure-all
      std::erase(measure.qubits, q);
      for (int& m : measure.qubits)
        if (m > q) --m;
      out.append(std::move(measure));
      continue;
    }
    if (std::find(op.qubits.begin(), op.qubits.end(), q) != op.qubits.end())
      continue;  // gate touches the dropped qubit
    Operation mapped = op;
    for (int& m : mapped.qubits)
      if (m > q) --m;
    out.append(std::move(mapped));
  }
  return out;
}

Circuit shrink(const Circuit& failing,
               const std::function<bool(const Circuit&)>& still_fails) {
  Circuit current = failing;
  bool changed = true;
  // Each pass either strictly shrinks the circuit or terminates the loop,
  // so the iteration cap is only a safety net against a flaky predicate.
  int rounds = 0;
  while (changed && rounds++ < 64) {
    changed = false;
    // Drop single ops, scanning from the back so indices stay valid.
    for (std::size_t i = current.size(); i-- > 0;) {
      if (current.ops()[i].kind == OpKind::kMeasure) continue;
      Circuit candidate = remove_op(current, i);
      if (still_fails(candidate)) {
        current = std::move(candidate);
        changed = true;
      }
    }
    // Drop whole qubits, highest first (remapping moves higher indices).
    for (int q = current.num_qubits(); q-- > 0;) {
      if (current.num_qubits() < 2) break;
      Circuit candidate = remove_qubit(current, q);
      if (still_fails(candidate)) {
        current = std::move(candidate);
        changed = true;
      }
    }
  }
  return current;
}

}  // namespace hpcqc::verify
