#include "hpcqc/circuit/parametric.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "hpcqc/common/error.hpp"

namespace hpcqc::circuit {

ParamExpr ParamExpr::literal(double value) {
  ParamExpr expr;
  expr.coefficient_ = value;
  return expr;
}

ParamExpr ParamExpr::symbol(std::string name, double coefficient,
                            double offset) {
  expects(!name.empty(), "ParamExpr::symbol: name cannot be empty");
  ParamExpr expr;
  expr.name_ = std::move(name);
  expr.coefficient_ = coefficient;
  expr.offset_ = offset;
  return expr;
}

double ParamExpr::evaluate(
    const std::map<std::string, double>& binding) const {
  if (is_literal()) return coefficient_;
  const auto it = binding.find(name_);
  if (it == binding.end())
    throw NotFoundError("ParamExpr: unbound parameter '" + name_ + "'");
  return coefficient_ * it->second + offset_;
}

ParametricCircuit::ParametricCircuit(int num_qubits)
    : num_qubits_(num_qubits) {
  expects(num_qubits >= 1, "ParametricCircuit: need at least one qubit");
}

void ParametricCircuit::append(ParametricOperation op) {
  const int arity = op_arity(op.kind);
  if (arity > 0)
    expects(static_cast<int>(op.qubits.size()) == arity,
            "ParametricCircuit::append: wrong operand count");
  expects(static_cast<int>(op.params.size()) == op_param_count(op.kind),
          "ParametricCircuit::append: wrong parameter count");
  for (int q : op.qubits)
    expects(q >= 0 && q < num_qubits_,
            "ParametricCircuit::append: qubit out of range");
  if (op.qubits.size() == 2)
    expects(op.qubits[0] != op.qubits[1],
            "ParametricCircuit::append: two-qubit op needs distinct qubits");
  ops_.push_back(std::move(op));
}

ParametricCircuit& ParametricCircuit::rx(ParamExpr theta, int qubit) {
  append({OpKind::kRx, {qubit}, {std::move(theta)}});
  return *this;
}

ParametricCircuit& ParametricCircuit::ry(ParamExpr theta, int qubit) {
  append({OpKind::kRy, {qubit}, {std::move(theta)}});
  return *this;
}

ParametricCircuit& ParametricCircuit::rz(ParamExpr theta, int qubit) {
  append({OpKind::kRz, {qubit}, {std::move(theta)}});
  return *this;
}

ParametricCircuit& ParametricCircuit::prx(ParamExpr theta, ParamExpr phi,
                                          int qubit) {
  append({OpKind::kPrx, {qubit}, {std::move(theta), std::move(phi)}});
  return *this;
}

ParametricCircuit& ParametricCircuit::cphase(ParamExpr theta, int qubit0,
                                             int qubit1) {
  append({OpKind::kCphase, {qubit0, qubit1}, {std::move(theta)}});
  return *this;
}

ParametricCircuit& ParametricCircuit::h(int qubit) {
  append({OpKind::kH, {qubit}, {}});
  return *this;
}

ParametricCircuit& ParametricCircuit::x(int qubit) {
  append({OpKind::kX, {qubit}, {}});
  return *this;
}

ParametricCircuit& ParametricCircuit::cz(int qubit0, int qubit1) {
  append({OpKind::kCz, {qubit0, qubit1}, {}});
  return *this;
}

ParametricCircuit& ParametricCircuit::cx(int control, int target) {
  append({OpKind::kCx, {control, target}, {}});
  return *this;
}

ParametricCircuit& ParametricCircuit::barrier() {
  append({OpKind::kBarrier, {}, {}});
  return *this;
}

ParametricCircuit& ParametricCircuit::measure(std::vector<int> qubits) {
  std::set<int> seen;
  for (int q : qubits) {
    expects(q >= 0 && q < num_qubits_,
            "ParametricCircuit::measure: qubit out of range");
    expects(seen.insert(q).second,
            "ParametricCircuit::measure: duplicate qubit in measure list");
  }
  append({OpKind::kMeasure, std::move(qubits), {}});
  return *this;
}

std::vector<std::string> ParametricCircuit::parameters() const {
  std::set<std::string> names;
  for (const auto& op : ops_)
    for (const auto& param : op.params)
      if (!param.is_literal()) names.insert(param.name());
  return {names.begin(), names.end()};
}

std::uint64_t ParametricCircuit::structural_hash() const {
  // Symbols hash by their index in the sorted parameter list, so renaming
  // a parameter consistently does not change the structure.
  const auto names = parameters();
  std::map<std::string, std::uint64_t> index;
  for (std::size_t i = 0; i < names.size(); ++i) index[names[i]] = i;

  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV offset basis
  const auto mix = [&hash](std::uint64_t value) {
    hash ^= value;
    hash *= 0x100000001b3ULL;  // FNV prime
  };
  const auto mix_double = [&mix](double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&bits, &value, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(num_qubits_));
  for (const auto& op : ops_) {
    mix(static_cast<std::uint64_t>(op.kind) + 1);
    for (int q : op.qubits) mix(static_cast<std::uint64_t>(q) + 0x9e37);
    for (const auto& param : op.params) {
      if (param.is_literal()) {
        mix(0x11);
        mix_double(param.coefficient());
      } else {
        mix(0x22);
        mix(index.at(param.name()));
        mix_double(param.coefficient());
        mix_double(param.offset());
      }
    }
  }
  return hash;
}

Circuit ParametricCircuit::bind(
    const std::map<std::string, double>& binding) const {
  // Reject unknown binding entries (typo protection).
  const auto known = parameters();
  for (const auto& [name, value] : binding) {
    if (!std::binary_search(known.begin(), known.end(), name))
      throw PreconditionError("ParametricCircuit::bind: unknown parameter '" +
                              name + "'");
  }

  Circuit circuit(num_qubits_);
  for (const auto& op : ops_) {
    Operation concrete;
    concrete.kind = op.kind;
    concrete.qubits = op.qubits;
    for (const auto& param : op.params)
      concrete.params.push_back(param.evaluate(binding));
    circuit.append(std::move(concrete));
  }
  return circuit;
}

}  // namespace hpcqc::circuit
