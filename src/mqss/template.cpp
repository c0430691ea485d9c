#include "hpcqc/mqss/template.hpp"

#include <algorithm>

#include "hpcqc/common/error.hpp"
#include "lowering.hpp"

namespace hpcqc::mqss {

using circuit::OpKind;
using circuit::Operation;
using circuit::ParamExpr;
using circuit::ParametricCircuit;

namespace lowering {

namespace {

void add_term(Affine& a, std::uint32_t index, double coefficient) {
  if (coefficient == 0.0) return;
  auto it = std::lower_bound(
      a.terms.begin(), a.terms.end(), index,
      [](const auto& term, std::uint32_t i) { return term.first < i; });
  if (it != a.terms.end() && it->first == index) {
    it->second += coefficient;
    if (it->second == 0.0) a.terms.erase(it);
  } else {
    a.terms.insert(it, {index, coefficient});
  }
}

/// Lifts a ParamExpr to an affine form over the canonical parameter order.
Affine lift(const ParamExpr& expr,
            const std::map<std::string, std::uint32_t>& index) {
  if (expr.is_literal()) return expr.coefficient();
  Affine out(expr.offset());
  add_term(out, index.at(expr.name()), expr.coefficient());
  return out;
}

}  // namespace

Affine operator+(const Affine& a, const Affine& b) {
  Affine out = a;
  out.constant = a.constant + b.constant;
  for (const auto& [index, coefficient] : b.terms)
    add_term(out, index, coefficient);
  return out;
}

Affine operator-(const Affine& a) {
  Affine out(-a.constant);
  out.terms.reserve(a.terms.size());
  for (const auto& [index, coefficient] : a.terms)
    out.terms.emplace_back(index, -coefficient);
  return out;
}

Affine operator-(const Affine& a, const Affine& b) { return a + -b; }

Affine operator*(const Affine& a, double factor) {
  Affine out(a.constant * factor);
  for (const auto& [index, coefficient] : a.terms)
    add_term(out, index, coefficient * factor);
  return out;
}

}  // namespace lowering

using lowering::AffineOp;

CompiledTemplate compile_template(const ParametricCircuit& circuit,
                                  const qdmi::DeviceInterface& device,
                                  const CompilerOptions& options) {
  expects(circuit.num_qubits() <= device.num_qubits(),
          "compile_template: circuit does not fit the device");

  const std::vector<std::string> names = circuit.parameters();
  std::map<std::string, std::uint32_t> index;
  for (std::size_t i = 0; i < names.size(); ++i)
    index[names[i]] = static_cast<std::uint32_t>(i);

  // Placement and routing never read angles, so they run on the all-zeros
  // skeleton; the affine forms are re-attached to the routed stream below.
  std::map<std::string, double> zeros;
  for (const auto& name : names) zeros[name] = 0.0;

  CompilationUnit unit;
  unit.circuit = circuit.bind(zeros);
  unit.dialect = Dialect::kCore;
  PassManager layout;
  layout.add(std::make_unique<PlacementPass>(options.placement));
  layout.add(std::make_unique<RoutingPass>(options.fidelity_aware_routing));
  layout.run(unit, device);

  // Re-attach: routing preserves every source op (kind unchanged, qubits
  // remapped) in order and only ever *inserts* parameter-free kSwap ops, so
  // source angles map onto the routed stream positionally.
  std::vector<AffineOp> routed;
  routed.reserve(unit.circuit.size());
  std::size_t cursor = 0;
  const auto& source_ops = circuit.ops();
  for (const auto& op : unit.circuit.ops()) {
    AffineOp affine_op;
    affine_op.kind = op.kind;
    affine_op.qubits = op.qubits;
    if (cursor < source_ops.size() && source_ops[cursor].kind == op.kind) {
      for (const auto& expr : source_ops[cursor].params)
        affine_op.params.push_back(lowering::lift(expr, index));
      ++cursor;
    } else {
      ensure_state(op.kind == OpKind::kSwap && op.params.empty(),
                   "compile_template: routed stream diverged from source");
    }
    ensure_state(affine_op.params.size() == op.params.size(),
                 "compile_template: parameter arity diverged in routing");
    routed.push_back(std::move(affine_op));
  }
  ensure_state(cursor == source_ops.size(),
               "compile_template: routing dropped a source op");

  // The cold compile's lowering, on affine angles.
  const int n = unit.circuit.num_qubits();
  const auto record = [&unit](const Pass& pass,
                              const std::vector<AffineOp>& ops) {
    unit.trace.push_back(pass.name());
    unit.trace_gate_counts.push_back(static_cast<std::size_t>(
        std::count_if(ops.begin(), ops.end(), [](const AffineOp& op) {
          return op.kind != OpKind::kBarrier && op.kind != OpKind::kMeasure;
        })));
  };
  std::vector<AffineOp> native = lowering::decompose_native(routed, n);
  record(NativeDecompositionPass(), native);
  if (options.optimize) {
    native = lowering::peephole(std::move(native), n);
    record(PeepholePass(), native);
  }

  // Emit: base carries every angle at its affine constant; slots record the
  // symbol-dependent ones for the bind phase to patch.
  CompiledTemplate result;
  circuit::Circuit emitted(n);
  for (std::size_t i = 0; i < native.size(); ++i) {
    const AffineOp& op = native[i];
    Operation concrete;
    concrete.kind = op.kind;
    concrete.qubits = op.qubits;
    for (std::size_t j = 0; j < op.params.size(); ++j) {
      concrete.params.push_back(op.params[j].constant);
      if (op.params[j].symbolic()) {
        ParamSlot slot;
        slot.op_index = static_cast<std::uint32_t>(i);
        slot.param_index = static_cast<std::uint32_t>(j);
        slot.constant = op.params[j].constant;
        slot.terms = op.params[j].terms;
        result.slots.push_back(std::move(slot));
      }
    }
    emitted.append(std::move(concrete));
  }

  result.base.native_circuit = std::move(emitted);
  result.base.initial_layout = std::move(unit.layout);
  result.base.pass_trace = std::move(unit.trace);
  result.base.pass_gate_counts = std::move(unit.trace_gate_counts);
  result.base.native_gate_count = result.base.native_circuit.gate_count();
  result.base.swap_count = unit.swaps_inserted;
  result.parameters = names;
  return result;
}

CompiledProgram CompiledTemplate::bind(
    const std::map<std::string, double>& binding) const {
  for (const auto& [name, value] : binding) {
    (void)value;
    if (!std::binary_search(parameters.begin(), parameters.end(), name))
      throw PreconditionError("CompiledTemplate::bind: unknown parameter '" +
                              name + "'");
  }
  std::vector<double> values(parameters.size());
  for (std::size_t i = 0; i < parameters.size(); ++i) {
    const auto it = binding.find(parameters[i]);
    if (it == binding.end())
      throw NotFoundError("CompiledTemplate::bind: unbound parameter '" +
                          parameters[i] + "'");
    values[i] = it->second;
  }
  CompiledProgram program = base;
  for (const auto& slot : slots) {
    double value = slot.constant;
    for (const auto& [param, coefficient] : slot.terms)
      value += coefficient * values[param];
    program.native_circuit.set_param(slot.op_index, slot.param_index, value);
  }
  return program;
}

CompiledTemplate as_template(CompiledProgram program) {
  CompiledTemplate result;
  result.base = std::move(program);
  return result;
}

}  // namespace hpcqc::mqss
