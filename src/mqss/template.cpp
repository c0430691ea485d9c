#include "hpcqc/mqss/template.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss {

using circuit::OpKind;
using circuit::Operation;
using circuit::ParamExpr;
using circuit::ParametricCircuit;

namespace {

constexpr double kPi = M_PI;
constexpr double kHalfPi = M_PI / 2.0;

/// An angle as an affine form over the template's canonical parameters:
/// constant + sum(coefficient_i * theta_i). Terms are kept sorted by
/// parameter index with exact-zero coefficients dropped, so symbolic() is
/// a syntactic check: a form with no terms is binding-independent.
struct Affine {
  double constant = 0.0;
  std::vector<std::pair<std::uint32_t, double>> terms;

  bool symbolic() const { return !terms.empty(); }
};

Affine affine_literal(double value) { return {value, {}}; }

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

Affine affine_add(const Affine& a, const Affine& b) {
  Affine out = a;
  out.constant = a.constant + b.constant;
  for (const auto& [index, coefficient] : b.terms)
    add_term(out, index, coefficient);
  return out;
}

Affine affine_neg(const Affine& a) {
  Affine out;
  out.constant = -a.constant;
  out.terms.reserve(a.terms.size());
  for (const auto& [index, coefficient] : a.terms)
    out.terms.emplace_back(index, -coefficient);
  return out;
}

Affine affine_sub(const Affine& a, const Affine& b) {
  return affine_add(a, affine_neg(b));
}

Affine affine_scale(const Affine& a, double factor) {
  Affine out;
  out.constant = a.constant * factor;
  for (const auto& [index, coefficient] : a.terms)
    add_term(out, index, coefficient * factor);
  return out;
}

bool is_multiple_of_two_pi(double angle) {
  const double wrapped = std::remainder(angle, 2.0 * M_PI);
  return std::abs(wrapped) < 1e-12;
}

/// Identity test usable without a binding: literal AND a 2-pi multiple.
/// Symbol-dependent angles are never identities "for all theta".
bool affine_is_identity_rotation(const Affine& a) {
  return !a.symbolic() && is_multiple_of_two_pi(a.constant);
}

/// One instruction with affine angles — the intermediate form the structure
/// phase lowers instead of concrete Operations.
struct AffineOp {
  OpKind kind = OpKind::kI;
  std::vector<int> qubits;
  std::vector<Affine> params;
};

/// ZYZ parameters with affine angles; mirrors compiler.cpp's u3_of.
struct AffineU3 {
  Affine theta;
  Affine phi;
  Affine lambda;
};

AffineU3 u3_of(const AffineOp& op) {
  const auto lit = affine_literal;
  switch (op.kind) {
    case OpKind::kI: return {lit(0.0), lit(0.0), lit(0.0)};
    case OpKind::kX: return {lit(kPi), lit(0.0), lit(kPi)};
    case OpKind::kY: return {lit(kPi), lit(kHalfPi), lit(kHalfPi)};
    case OpKind::kZ: return {lit(0.0), lit(0.0), lit(kPi)};
    case OpKind::kH: return {lit(kHalfPi), lit(0.0), lit(kPi)};
    case OpKind::kS: return {lit(0.0), lit(0.0), lit(kHalfPi)};
    case OpKind::kSdg: return {lit(0.0), lit(0.0), lit(-kHalfPi)};
    case OpKind::kT: return {lit(0.0), lit(0.0), lit(kPi / 4.0)};
    case OpKind::kTdg: return {lit(0.0), lit(0.0), lit(-kPi / 4.0)};
    case OpKind::kSx: return {lit(kHalfPi), lit(-kHalfPi), lit(kHalfPi)};
    case OpKind::kRx: return {op.params[0], lit(-kHalfPi), lit(kHalfPi)};
    case OpKind::kRy: return {op.params[0], lit(0.0), lit(0.0)};
    case OpKind::kRz: return {lit(0.0), lit(0.0), op.params[0]};
    case OpKind::kU: return {op.params[0], op.params[1], op.params[2]};
    case OpKind::kPrx:
      return {op.params[0], affine_sub(op.params[1], lit(kHalfPi)),
              affine_sub(lit(kHalfPi), op.params[1])};
    default:
      throw Error("compile_template: not a single-qubit gate");
  }
}

/// Mirrors compiler.cpp's expand_2q on affine angles.
void expand_2q(const AffineOp& op, std::vector<AffineOp>& out) {
  const int a = op.qubits[0];
  const int b = op.qubits[1];
  const auto cx = [&out](int control, int target) {
    out.push_back({OpKind::kH, {target}, {}});
    out.push_back({OpKind::kCz, {control, target}, {}});
    out.push_back({OpKind::kH, {target}, {}});
  };
  switch (op.kind) {
    case OpKind::kCz:
      out.push_back(op);
      return;
    case OpKind::kCx:
      cx(a, b);
      return;
    case OpKind::kSwap:
      cx(a, b);
      cx(b, a);
      cx(a, b);
      return;
    case OpKind::kIswap:
      out.push_back({OpKind::kS, {a}, {}});
      out.push_back({OpKind::kS, {b}, {}});
      out.push_back({OpKind::kCz, {a, b}, {}});
      expand_2q({OpKind::kSwap, {a, b}, {}}, out);
      return;
    case OpKind::kCphase: {
      const Affine half = affine_scale(op.params[0], 0.5);
      out.push_back({OpKind::kRz, {a}, {half}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {affine_neg(half)}});
      cx(a, b);
      out.push_back({OpKind::kRz, {b}, {half}});
      return;
    }
    default:
      throw Error("compile_template: not a two-qubit gate");
  }
}

std::size_t affine_gate_count(const std::vector<AffineOp>& ops) {
  std::size_t count = 0;
  for (const auto& op : ops)
    if (op.kind != OpKind::kBarrier && op.kind != OpKind::kMeasure) ++count;
  return count;
}

/// Lifts a ParamExpr to an affine form over the canonical parameter order.
Affine lift(const ParamExpr& expr,
            const std::map<std::string, std::uint32_t>& index) {
  if (expr.is_literal()) return affine_literal(expr.coefficient());
  Affine out = affine_literal(expr.offset());
  add_term(out, index.at(expr.name()), expr.coefficient());
  return out;
}

}  // namespace

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
  const PlacementPass place(options.placement);
  place.run(unit, device);
  unit.trace.push_back(place.name());
  unit.trace_gate_counts.push_back(unit.circuit.gate_count());
  const RoutingPass route(options.fidelity_aware_routing);
  route.run(unit, device);
  unit.trace.push_back(route.name());
  unit.trace_gate_counts.push_back(unit.circuit.gate_count());

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
        affine_op.params.push_back(lift(expr, index));
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

  // Native decomposition, mirroring NativeDecompositionPass on affine
  // angles. A rotation whose angle is symbol-dependent is always emitted:
  // it is only an identity at isolated bindings, never for all of them.
  std::vector<AffineOp> intermediate;
  intermediate.reserve(routed.size() * 2);
  for (const auto& op : routed) {
    if (circuit::op_is_two_qubit(op.kind)) {
      expand_2q(op, intermediate);
    } else {
      intermediate.push_back(op);
    }
  }
  std::vector<AffineOp> native;
  native.reserve(intermediate.size());
  std::vector<Affine> frame(
      static_cast<std::size_t>(unit.circuit.num_qubits()),
      affine_literal(0.0));
  for (const auto& op : intermediate) {
    if (op.kind == OpKind::kBarrier || op.kind == OpKind::kMeasure ||
        op.kind == OpKind::kCz) {
      native.push_back(op);
      continue;
    }
    const AffineU3 u = u3_of(op);
    const auto q = static_cast<std::size_t>(op.qubits[0]);
    if (!affine_is_identity_rotation(u.theta)) {
      const Affine phi = affine_sub(
          affine_sub(affine_literal(kHalfPi), u.lambda), frame[q]);
      native.push_back({OpKind::kPrx, {op.qubits[0]}, {u.theta, phi}});
    }
    frame[q] = affine_add(frame[q], affine_add(u.phi, u.lambda));
  }
  unit.trace.emplace_back("decompose-native");
  unit.trace_gate_counts.push_back(affine_gate_count(native));

  // Peephole, mirroring PeepholePass with binding-independent rewrite
  // conditions only: fusion requires the two PRX phases to differ by a
  // *literal* multiple of 2*pi (the fused angle sum stays affine); identity
  // drops require a literal 2*pi-multiple angle.
  if (options.optimize) {
    std::vector<AffineOp> ops = std::move(native);
    bool changed = true;
    int iterations = 0;
    while (changed && iterations++ < 32) {
      changed = false;
      std::vector<long> last_touch(
          static_cast<std::size_t>(unit.circuit.num_qubits()), -1);
      std::vector<AffineOp> result;
      result.reserve(ops.size());

      const auto touch = [&](const AffineOp& op) {
        for (int q : op.qubits)
          last_touch[static_cast<std::size_t>(q)] =
              static_cast<long>(result.size());
      };

      for (const auto& op : ops) {
        if (op.kind == OpKind::kPrx &&
            affine_is_identity_rotation(op.params[0])) {
          changed = true;
          continue;
        }
        if (op.kind == OpKind::kPrx) {
          const auto q = static_cast<std::size_t>(op.qubits[0]);
          const long prev = last_touch[q];
          if (prev >= 0) {
            AffineOp& before = result[static_cast<std::size_t>(prev)];
            if (before.kind == OpKind::kPrx && before.qubits == op.qubits) {
              const Affine delta =
                  affine_sub(before.params[1], op.params[1]);
              if (!delta.symbolic() &&
                  std::abs(std::remainder(delta.constant, 2.0 * M_PI)) <
                      1e-12) {
                before.params[0] = affine_add(before.params[0], op.params[0]);
                changed = true;
                continue;
              }
            }
          }
        }
        if (op.kind == OpKind::kCz) {
          const auto a = static_cast<std::size_t>(op.qubits[0]);
          const auto b = static_cast<std::size_t>(op.qubits[1]);
          const long pa = last_touch[a];
          if (pa >= 0 && pa == last_touch[b]) {
            const AffineOp& before = result[static_cast<std::size_t>(pa)];
            if (before.kind == OpKind::kCz &&
                ((before.qubits[0] == op.qubits[0] &&
                  before.qubits[1] == op.qubits[1]) ||
                 (before.qubits[0] == op.qubits[1] &&
                  before.qubits[1] == op.qubits[0]))) {
              result[static_cast<std::size_t>(pa)] = {
                  OpKind::kPrx,
                  {op.qubits[0]},
                  {affine_literal(0.0), affine_literal(0.0)}};
              changed = true;
              continue;
            }
          }
        }
        if (op.kind == OpKind::kBarrier) {
          std::fill(last_touch.begin(), last_touch.end(),
                    static_cast<long>(result.size()));
          result.push_back(op);
          continue;
        }
        touch(op);
        result.push_back(op);
      }
      ops = std::move(result);
    }
    native.clear();
    for (auto& op : ops) {
      if (op.kind == OpKind::kPrx &&
          affine_is_identity_rotation(op.params[0]))
        continue;
      native.push_back(std::move(op));
    }
    unit.trace.emplace_back("peephole");
    unit.trace_gate_counts.push_back(affine_gate_count(native));
  }

  // Emit: base carries every angle at its affine constant; slots record the
  // symbol-dependent ones for the bind phase to patch.
  CompiledTemplate result;
  circuit::Circuit emitted(unit.circuit.num_qubits());
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
