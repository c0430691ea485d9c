#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/qdmi/qdmi.hpp"

namespace hpcqc::mqss {

/// Dialect levels of the progressive-lowering pipeline, modeled on the
/// MLIR-based MQSS compiler: frontend circuits arrive in the *core* dialect
/// (any gate in the vocabulary, virtual qubits), and lowering produces the
/// *native* dialect (PRX/CZ on physical qubits, topology-legal).
enum class Dialect { kCore, kPlaced, kRouted, kNative };

const char* to_string(Dialect dialect);

/// How the JIT chooses physical qubits.
enum class PlacementStrategy {
  /// Identity layout: virtual qubit i -> physical qubit i. What a static
  /// (calibration-unaware) compiler does.
  kStatic,
  /// Greedy fidelity-aware subgraph growth over live QDMI metrics — the
  /// "JIT adaptation of compilation" enabled by QDMI; per [26], just-in-time
  /// transpilation against live calibration data reduces noise.
  kFidelityAware,
};

const char* to_string(PlacementStrategy strategy);

struct CompilerOptions {
  PlacementStrategy placement = PlacementStrategy::kFidelityAware;
  bool optimize = true;
  /// Weight SWAP routes by live CZ fidelities (-log F edge costs) instead
  /// of plain hop count — the routing half of QDMI-driven JIT adaptation.
  bool fidelity_aware_routing = true;
};

/// A compilation unit moving through the pass pipeline.
struct CompilationUnit {
  circuit::Circuit circuit{1};
  Dialect dialect = Dialect::kCore;
  /// layout[virtual] = physical; identity until placement runs. After
  /// routing the entry reflects where each virtual qubit *started*.
  std::vector<int> layout;
  /// Names of passes applied, in order (the lowering trace).
  std::vector<std::string> trace;
  /// Gate count after each pass in `trace` (same indexing) — what the
  /// per-pass tracing spans report.
  std::vector<std::size_t> trace_gate_counts;
  /// SWAPs inserted by routing (before native decomposition).
  std::size_t swaps_inserted = 0;
};

/// Final artifact: a native, topology-legal circuit over the full device
/// register plus bookkeeping for interpreting measured bits.
struct CompiledProgram {
  circuit::Circuit native_circuit{1};
  std::vector<int> initial_layout;
  std::vector<std::string> pass_trace;
  /// Gate count after each pass in `pass_trace` (same indexing).
  std::vector<std::size_t> pass_gate_counts;
  std::size_t native_gate_count = 0;
  std::size_t swap_count = 0;

  /// Human-readable compilation report — the "greater transparency in the
  /// quantum circuit compilation process" §4's users asked for: pass
  /// pipeline, chosen layout, gate/SWAP statistics and the native program.
  std::string describe() const;
};

/// One compiler pass.
class Pass {
public:
  virtual ~Pass() = default;
  virtual std::string name() const = 0;
  virtual void run(CompilationUnit& unit,
                   const qdmi::DeviceInterface& device) const = 0;
};

/// Orders and runs passes, recording the trace.
class PassManager {
public:
  void add(std::unique_ptr<Pass> pass);
  std::size_t pass_count() const { return passes_.size(); }
  void run(CompilationUnit& unit, const qdmi::DeviceInterface& device) const;

private:
  std::vector<std::unique_ptr<Pass>> passes_;
};

/// Builds the standard pipeline for the given options:
/// placement -> routing -> native decomposition [-> peephole optimization].
PassManager standard_pipeline(const CompilerOptions& options);

/// Convenience front door: compile a frontend circuit for a device using
/// live QDMI data.
CompiledProgram compile(const circuit::Circuit& circuit,
                        const qdmi::DeviceInterface& device,
                        const CompilerOptions& options = {});

// ---- Individual passes (exposed for testing and ablation) -----------------

/// Chooses the initial virtual->physical layout and rewrites the circuit
/// onto the device register.
class PlacementPass final : public Pass {
public:
  explicit PlacementPass(PlacementStrategy strategy) : strategy_(strategy) {}
  std::string name() const override;
  void run(CompilationUnit& unit,
           const qdmi::DeviceInterface& device) const override;

private:
  PlacementStrategy strategy_;
};

/// Inserts SWAPs so every two-qubit gate acts on coupled qubits. Greedy
/// shortest-path routing; with `fidelity_aware` the path metric is
/// -log(CZ fidelity) per coupler (plus a small hop penalty) queried live
/// through QDMI, so SWAP chains avoid degraded couplers.
class RoutingPass final : public Pass {
public:
  explicit RoutingPass(bool fidelity_aware = false)
      : fidelity_aware_(fidelity_aware) {}
  std::string name() const override {
    return fidelity_aware_ ? "route-fidelity-aware" : "route";
  }
  void run(CompilationUnit& unit,
           const qdmi::DeviceInterface& device) const override;

private:
  bool fidelity_aware_;
};

/// Lowers every gate to the native set {PRX, CZ} using virtual-Z phase
/// tracking (RZ costs nothing on this hardware: it is a frame update).
/// compile_template runs the same lowering on affine angles.
class NativeDecompositionPass final : public Pass {
public:
  std::string name() const override { return "decompose-native"; }
  void run(CompilationUnit& unit,
           const qdmi::DeviceInterface& device) const override;
};

/// Peephole cleanup on the native dialect: drops identity rotations, fuses
/// same-axis PRX chains, cancels adjacent CZ pairs.
class PeepholePass final : public Pass {
public:
  std::string name() const override { return "peephole"; }
  void run(CompilationUnit& unit,
           const qdmi::DeviceInterface& device) const override;
};

/// Greedy fidelity-aware layout over live metrics (exposed for tests).
/// Restricted to the largest healthy connected component when the device
/// reports a degraded capability set.
std::vector<int> fidelity_aware_layout(int virtual_qubits,
                                       const qdmi::DeviceInterface& device);

/// The serving set under degraded-mode operation: the largest connected
/// component of the subgraph of kOperational qubits joined by kOperational
/// couplers, sorted ascending. Equals [0, num_qubits) on a healthy device.
/// Placement confines layouts to this set and routing never leaves it, so a
/// partially-failed device keeps accepting every job that fits it.
std::vector<int> usable_qubits(const qdmi::DeviceInterface& device);

}  // namespace hpcqc::mqss
