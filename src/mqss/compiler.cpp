#include "hpcqc/mqss/compiler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

#include "hpcqc/common/error.hpp"
#include "lowering.hpp"

namespace hpcqc::mqss {

using circuit::Circuit;
using circuit::Operation;
using circuit::OpKind;

const char* to_string(Dialect dialect) {
  switch (dialect) {
    case Dialect::kCore: return "core";
    case Dialect::kPlaced: return "placed";
    case Dialect::kRouted: return "routed";
    case Dialect::kNative: return "native";
  }
  return "?";
}

const char* to_string(PlacementStrategy strategy) {
  return strategy == PlacementStrategy::kStatic ? "static"
                                                : "fidelity-aware";
}

void PassManager::add(std::unique_ptr<Pass> pass) {
  expects(pass != nullptr, "PassManager: null pass");
  passes_.push_back(std::move(pass));
}

void PassManager::run(CompilationUnit& unit,
                      const qdmi::DeviceInterface& device) const {
  for (const auto& pass : passes_) {
    pass->run(unit, device);
    unit.trace.push_back(pass->name());
    unit.trace_gate_counts.push_back(unit.circuit.gate_count());
  }
}

// ---------------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------------

namespace {

double qubit_quality(const qdmi::DeviceInterface& device, int q) {
  return device.qubit_property(qdmi::QubitProperty::kFidelity1q, q) *
         device.qubit_property(qdmi::QubitProperty::kReadoutFidelity, q);
}

bool coupler_operational(const qdmi::DeviceInterface& device, int a, int b) {
  return device.coupler_property(qdmi::CouplerProperty::kOperational, a, b) >=
         0.5;
}

}  // namespace

std::vector<int> usable_qubits(const qdmi::DeviceInterface& device) {
  const int n = device.num_qubits();
  std::vector<char> up(static_cast<std::size_t>(n), 0);
  for (int q = 0; q < n; ++q)
    up[static_cast<std::size_t>(q)] =
        device.qubit_property(qdmi::QubitProperty::kOperational, q) >= 0.5;

  std::vector<std::vector<int>> adjacency(static_cast<std::size_t>(n));
  for (const auto& [a, b] : device.coupling_map()) {
    if (!up[static_cast<std::size_t>(a)] || !up[static_cast<std::size_t>(b)])
      continue;
    if (!coupler_operational(device, a, b)) continue;
    adjacency[static_cast<std::size_t>(a)].push_back(b);
    adjacency[static_cast<std::size_t>(b)].push_back(a);
  }

  // Largest connected component; smallest-member tiebreak keeps the result
  // a deterministic function of the reported capability set.
  std::vector<int> best;
  std::vector<char> visited(static_cast<std::size_t>(n), 0);
  for (int start = 0; start < n; ++start) {
    if (visited[static_cast<std::size_t>(start)] ||
        !up[static_cast<std::size_t>(start)])
      continue;
    std::vector<int> component{start};
    visited[static_cast<std::size_t>(start)] = 1;
    for (std::size_t head = 0; head < component.size(); ++head) {
      for (int next : adjacency[static_cast<std::size_t>(component[head])]) {
        if (visited[static_cast<std::size_t>(next)]) continue;
        visited[static_cast<std::size_t>(next)] = 1;
        component.push_back(next);
      }
    }
    if (component.size() > best.size()) best = std::move(component);
  }
  std::sort(best.begin(), best.end());
  return best;
}

std::vector<int> fidelity_aware_layout(int virtual_qubits,
                                       const qdmi::DeviceInterface& device) {
  const int n = device.num_qubits();
  expects(virtual_qubits >= 1 && virtual_qubits <= n,
          "fidelity_aware_layout: circuit larger than the device");
  const std::vector<int> usable = usable_qubits(device);
  if (virtual_qubits > static_cast<int>(usable.size())) {
    throw TransientError(
        "fidelity_aware_layout: circuit needs " +
            std::to_string(virtual_qubits) +
            " qubits but the largest healthy component has " +
            std::to_string(usable.size()),
        ErrorCode::kDeviceUnavailable);
  }
  const std::set<int> in_usable(usable.begin(), usable.end());

  if (virtual_qubits == 1) {
    int best = usable.front();
    for (int q : usable)
      if (qubit_quality(device, q) > qubit_quality(device, best)) best = q;
    return {best};
  }

  // Candidate couplers: operational edges inside the serving component.
  std::vector<std::pair<int, int>> edges;
  for (const auto& [a, b] : device.coupling_map())
    if (in_usable.contains(a) && in_usable.contains(b) &&
        coupler_operational(device, a, b))
      edges.emplace_back(a, b);
  ensure_state(!edges.empty(),
               "fidelity_aware_layout: no usable coupler in the healthy set");

  // Seed with the best coupler (cz fidelity x endpoint quality), then grow
  // the connected set greedily by the best (coupler x quality) frontier.
  const auto edge_score = [&](int a, int b) {
    return device.coupler_property(qdmi::CouplerProperty::kFidelityCz, a, b) *
           qubit_quality(device, a) * qubit_quality(device, b);
  };
  int seed_a = edges.front().first;
  int seed_b = edges.front().second;
  for (const auto& [a, b] : edges)
    if (edge_score(a, b) > edge_score(seed_a, seed_b)) {
      seed_a = a;
      seed_b = b;
    }

  std::vector<int> chosen{seed_a, seed_b};
  std::set<int> in_set{seed_a, seed_b};
  while (static_cast<int>(chosen.size()) < virtual_qubits) {
    int best_candidate = -1;
    double best_score = -1.0;
    for (const auto& [a, b] : edges) {
      const bool a_in = in_set.contains(a);
      const bool b_in = in_set.contains(b);
      if (a_in == b_in) continue;  // need exactly one endpoint inside
      const int candidate = a_in ? b : a;
      const double score =
          device.coupler_property(qdmi::CouplerProperty::kFidelityCz, a, b) *
          qubit_quality(device, candidate);
      if (score > best_score) {
        best_score = score;
        best_candidate = candidate;
      }
    }
    ensure_state(best_candidate >= 0,
                 "fidelity_aware_layout: device coupling graph disconnected");
    chosen.push_back(best_candidate);
    in_set.insert(best_candidate);
  }
  return chosen;
}

std::string PlacementPass::name() const {
  return std::string("place-") + to_string(strategy_);
}

void PlacementPass::run(CompilationUnit& unit,
                        const qdmi::DeviceInterface& device) const {
  expects(unit.dialect == Dialect::kCore,
          "PlacementPass: expected the core dialect");
  const int virtual_qubits = unit.circuit.num_qubits();
  std::vector<int> layout;
  if (strategy_ == PlacementStrategy::kStatic) {
    // Identity over the serving set: virtual qubit i -> i-th usable physical
    // qubit. On a healthy device this is the plain identity layout.
    std::vector<int> usable = usable_qubits(device);
    if (virtual_qubits > static_cast<int>(usable.size())) {
      throw TransientError(
          "PlacementPass: circuit needs " + std::to_string(virtual_qubits) +
              " qubits but the largest healthy component has " +
              std::to_string(usable.size()),
          ErrorCode::kDeviceUnavailable);
    }
    usable.resize(static_cast<std::size_t>(virtual_qubits));
    layout = std::move(usable);
  } else {
    layout = fidelity_aware_layout(virtual_qubits, device);
  }
  unit.circuit = unit.circuit.remapped(layout, device.num_qubits());
  unit.layout = std::move(layout);
  unit.dialect = Dialect::kPlaced;
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

namespace {

/// Weighted shortest path between two device qubits (Dijkstra; a uniform
/// weight of 1 reduces to BFS hop-count routing).
std::vector<int> shortest_path(
    const std::vector<std::vector<std::pair<int, double>>>& adjacency,
    int from, int to) {
  const std::size_t n = adjacency.size();
  std::vector<double> distance(n, std::numeric_limits<double>::infinity());
  std::vector<int> parent(n, -1);
  std::vector<bool> settled(n, false);
  distance[static_cast<std::size_t>(from)] = 0.0;
  parent[static_cast<std::size_t>(from)] = from;
  for (std::size_t round = 0; round < n; ++round) {
    int node = -1;
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!settled[i] && distance[i] < best) {
        best = distance[i];
        node = static_cast<int>(i);
      }
    }
    if (node < 0 || node == to) break;
    settled[static_cast<std::size_t>(node)] = true;
    for (const auto& [next, weight] : adjacency[static_cast<std::size_t>(node)]) {
      const double candidate = distance[static_cast<std::size_t>(node)] + weight;
      if (candidate < distance[static_cast<std::size_t>(next)]) {
        distance[static_cast<std::size_t>(next)] = candidate;
        parent[static_cast<std::size_t>(next)] = node;
      }
    }
  }
  ensure_state(parent[static_cast<std::size_t>(to)] >= 0,
               "RoutingPass: coupling graph disconnected");
  std::vector<int> path{to};
  while (path.back() != from)
    path.push_back(parent[static_cast<std::size_t>(path.back())]);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace

void RoutingPass::run(CompilationUnit& unit,
                      const qdmi::DeviceInterface& device) const {
  expects(unit.dialect == Dialect::kPlaced,
          "RoutingPass: expected the placed dialect");
  const int n = device.num_qubits();
  std::vector<std::vector<std::pair<int, double>>> adjacency(
      static_cast<std::size_t>(n));
  std::set<std::pair<int, int>> edge_set;
  for (const auto& [a, b] : device.coupling_map()) {
    // Degraded-mode serving: masked couplers (or couplers with a masked
    // endpoint) are invisible to routing, so SWAP chains never leave the
    // healthy subgraph.
    if (!coupler_operational(device, a, b)) continue;
    double weight = 1.0;
    if (fidelity_aware_) {
      // -log F per coupler plus a hop penalty so equal-fidelity routes
      // still prefer fewer SWAPs. Floor F to keep weights finite.
      const double fidelity = std::max(
          0.5, device.coupler_property(qdmi::CouplerProperty::kFidelityCz,
                                       a, b));
      weight = -std::log(fidelity) + 0.01;
    }
    adjacency[static_cast<std::size_t>(a)].emplace_back(b, weight);
    adjacency[static_cast<std::size_t>(b)].emplace_back(a, weight);
    edge_set.insert({std::min(a, b), std::max(a, b)});
  }
  const auto coupled = [&](int a, int b) {
    return edge_set.contains({std::min(a, b), std::max(a, b)});
  };

  // wire_to_phys[w]: current physical position of the logical wire that
  // started at physical position w after placement.
  std::vector<int> wire_to_phys(static_cast<std::size_t>(n));
  std::iota(wire_to_phys.begin(), wire_to_phys.end(), 0);
  std::vector<int> phys_to_wire = wire_to_phys;

  const auto apply_swap = [&](int pa, int pb) {
    const int wa = phys_to_wire[static_cast<std::size_t>(pa)];
    const int wb = phys_to_wire[static_cast<std::size_t>(pb)];
    std::swap(phys_to_wire[static_cast<std::size_t>(pa)],
              phys_to_wire[static_cast<std::size_t>(pb)]);
    wire_to_phys[static_cast<std::size_t>(wa)] = pb;
    wire_to_phys[static_cast<std::size_t>(wb)] = pa;
  };

  Circuit routed(n);
  for (const auto& op : unit.circuit.ops()) {
    if (op.kind == OpKind::kBarrier) {
      routed.append(op);
      continue;
    }
    if (op.kind == OpKind::kMeasure) {
      Operation measure = op;
      for (auto& q : measure.qubits)
        q = wire_to_phys[static_cast<std::size_t>(q)];
      routed.append(std::move(measure));
      continue;
    }
    if (!circuit::op_is_two_qubit(op.kind)) {
      Operation mapped = op;
      mapped.qubits[0] = wire_to_phys[static_cast<std::size_t>(op.qubits[0])];
      routed.append(std::move(mapped));
      continue;
    }
    // Two-qubit gate: bring the operands adjacent with SWAPs.
    int pa = wire_to_phys[static_cast<std::size_t>(op.qubits[0])];
    const int pb = wire_to_phys[static_cast<std::size_t>(op.qubits[1])];
    if (!coupled(pa, pb)) {
      const std::vector<int> path = shortest_path(adjacency, pa, pb);
      for (std::size_t i = 0; i + 2 < path.size(); ++i) {
        routed.swap(path[i], path[i + 1]);
        apply_swap(path[i], path[i + 1]);
        ++unit.swaps_inserted;
      }
      pa = wire_to_phys[static_cast<std::size_t>(op.qubits[0])];
    }
    Operation mapped = op;
    mapped.qubits[0] = pa;
    mapped.qubits[1] = wire_to_phys[static_cast<std::size_t>(op.qubits[1])];
    routed.append(std::move(mapped));
  }
  unit.circuit = std::move(routed);
  unit.dialect = Dialect::kRouted;
}

// ---------------------------------------------------------------------------
// Native decomposition (virtual-Z / PRX + CZ) and peephole optimization
// ---------------------------------------------------------------------------

namespace {

Circuit to_circuit(std::vector<Operation> ops, int num_qubits) {
  Circuit circuit(num_qubits);
  for (auto& op : ops) circuit.append(std::move(op));
  return circuit;
}

}  // namespace

void NativeDecompositionPass::run(CompilationUnit& unit,
                                  const qdmi::DeviceInterface& device) const {
  expects(unit.dialect == Dialect::kRouted || unit.dialect == Dialect::kPlaced,
          "NativeDecompositionPass: expected a routed/placed circuit");
  (void)device;
  const int n = unit.circuit.num_qubits();
  unit.circuit =
      to_circuit(lowering::decompose_native(unit.circuit.ops(), n), n);
  unit.dialect = Dialect::kNative;
}

void PeepholePass::run(CompilationUnit& unit,
                       const qdmi::DeviceInterface& device) const {
  (void)device;
  expects(unit.dialect == Dialect::kNative,
          "PeepholePass: expected the native dialect");
  const int n = unit.circuit.num_qubits();
  unit.circuit = to_circuit(lowering::peephole(unit.circuit.ops(), n), n);
}

// ---------------------------------------------------------------------------
// Pipeline assembly
// ---------------------------------------------------------------------------

PassManager standard_pipeline(const CompilerOptions& options) {
  PassManager pm;
  pm.add(std::make_unique<PlacementPass>(options.placement));
  pm.add(std::make_unique<RoutingPass>(options.fidelity_aware_routing));
  pm.add(std::make_unique<NativeDecompositionPass>());
  if (options.optimize) pm.add(std::make_unique<PeepholePass>());
  return pm;
}

std::string CompiledProgram::describe() const {
  std::string report = "compilation report\n  passes:";
  for (const auto& pass : pass_trace) report += " " + pass;
  report += "\n  initial layout (virtual -> physical):";
  for (std::size_t v = 0; v < initial_layout.size(); ++v)
    report += " q" + std::to_string(v) + "->q" +
              std::to_string(initial_layout[v]);
  report += "\n  native gates: " + std::to_string(native_gate_count);
  report += " (2q: " +
            std::to_string(native_circuit.two_qubit_gate_count()) +
            ", SWAPs routed: " + std::to_string(swap_count) + ")";
  report += "\n  depth: " + std::to_string(native_circuit.depth());
  report += "\n  native program:\n";
  for (const auto& op : native_circuit.ops())
    report += "    " + circuit::to_string(op) + "\n";
  return report;
}

CompiledProgram compile(const circuit::Circuit& circuit,
                        const qdmi::DeviceInterface& device,
                        const CompilerOptions& options) {
  expects(circuit.num_qubits() <= device.num_qubits(),
          "compile: circuit does not fit the device");
  CompilationUnit unit;
  unit.circuit = circuit;
  unit.dialect = Dialect::kCore;
  standard_pipeline(options).run(unit, device);

  CompiledProgram program;
  program.native_circuit = std::move(unit.circuit);
  program.initial_layout = std::move(unit.layout);
  program.pass_trace = std::move(unit.trace);
  program.pass_gate_counts = std::move(unit.trace_gate_counts);
  program.native_gate_count = program.native_circuit.gate_count();
  program.swap_count = unit.swaps_inserted;
  return program;
}

}  // namespace hpcqc::mqss
