#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/mqss/compiler.hpp"
#include "hpcqc/qdmi/qdmi.hpp"

namespace hpcqc::mqss {

/// One patchable angle in a compiled template: parameter `param_index` of
/// op `op_index` in the native circuit evaluates to
///   constant + sum over terms of coefficient * theta[parameter_index]
/// where `parameter_index` indexes CompiledTemplate::parameters. Virtual-Z
/// frame tracking makes native PRX phases affine combinations of *several*
/// source angles, so a slot carries a full linear form, not one symbol.
struct ParamSlot {
  std::uint32_t op_index = 0;
  std::uint32_t param_index = 0;
  double constant = 0.0;
  std::vector<std::pair<std::uint32_t, double>> terms;
};

/// The structure-phase artifact of two-phase compilation: a fully placed,
/// routed, decomposed and peephole-optimized native program whose
/// symbol-dependent angles are recorded as affine slots instead of values.
/// The parameter-binding phase (bind()) patches a fresh angle vector into a
/// copy of `base` without re-running any pass — the per-iteration cost of a
/// variational tight loop drops to a handful of multiply-adds.
///
/// Equivalence contract: for every binding theta,
///   bind(theta).native_circuit  ~  compile(source.bind(theta))
/// up to verify::FrameTolerance::kOutputZFrame. Both run one lowering, so
/// the programs differ only where an angle is symbolic: a cold compile
/// drops rotations that are identities at one particular theta (and the
/// frames those rotations shift), while the template keeps every
/// symbol-dependent rotation so it stays correct for all bindings. Without
/// symbols, bind({}) equals compile() exactly.
struct CompiledTemplate {
  /// Native program with every slot angle at its affine constant (i.e. the
  /// all-zeros binding). Never execute `base` directly for a parametric
  /// template — bind() first.
  CompiledProgram base;
  /// Canonical symbol order (ParametricCircuit::parameters(): sorted).
  std::vector<std::string> parameters;
  std::vector<ParamSlot> slots;

  bool is_parametric() const { return !parameters.empty(); }

  /// The parameter-binding phase: validates that `binding` covers exactly
  /// `parameters` (NotFoundError on a missing symbol, PreconditionError on
  /// an unknown extra entry), then patches every slot into a copy of the
  /// cached program. Runs no compiler pass.
  CompiledProgram bind(const std::map<std::string, double>& binding) const;
};

/// The structure phase: runs placement and routing on the parameter-free
/// skeleton (neither pass reads angles), then the cold compile's native
/// decomposition and peephole on affine angles, so every symbol's
/// contribution to every native angle is tracked exactly. Conservative by
/// construction: a rotation whose angle depends on a symbol is never
/// dropped or fused away unless the dependence provably cancels.
CompiledTemplate compile_template(const circuit::ParametricCircuit& circuit,
                                  const qdmi::DeviceInterface& device,
                                  const CompilerOptions& options = {});

/// Wraps an already-compiled concrete program as a zero-slot template, so
/// plain circuits and parametric templates share one cache value type.
CompiledTemplate as_template(CompiledProgram program);

}  // namespace hpcqc::mqss
