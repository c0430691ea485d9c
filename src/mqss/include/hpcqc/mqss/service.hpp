#pragma once

#include <map>
#include <memory>
#include <string>

#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/rng.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/compiler.hpp"
#include "hpcqc/mqss/structure_cache.hpp"
#include "hpcqc/mqss/template.hpp"
#include "hpcqc/net/formats.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/qdmi.hpp"

namespace hpcqc::mqss {

/// Result of one job run through the stack.
struct RunResult {
  qsim::Counts counts;
  double estimated_fidelity = 1.0;
  Seconds qpu_time = 0.0;  ///< shots x shot duration on the device
  std::size_t native_gate_count = 0;
  std::size_t swap_count = 0;
  std::vector<int> initial_layout;
  /// True when the result came from the noiseless digital-twin emulator
  /// (the §4 onboarding path) instead of the QPU — the degraded-mode
  /// fallback clients take while the circuit breaker is open.
  bool emulated = false;
};

/// The execution core both access paths converge on: JIT-compiles the
/// frontend circuit against live QDMI data and executes it on the device
/// twin. This is the "QRM + JIT LLVM-based compiler" box of Fig. 2 reduced
/// to its semantics: compile with live metrics, then run.
///
/// Compilation is two-phase. The *structure phase* (placement, routing,
/// native decomposition, peephole) is cached in a thread-safe LRU
/// StructureCache, content-addressed on
///   structural hash (parameters abstracted out)
///   x calibration epoch x health-mask fingerprint x compiler options,
/// so a mask flip that does not bump the device epoch (e.g. a sensor-driven
/// telemetry view) still invalidates affected entries. The *bind phase*
/// patches a ParametricCircuit binding's angles into the cached template
/// without re-running any pass.
class QpuService {
public:
  QpuService(device::DeviceModel& device, const qdmi::DeviceInterface& qdmi,
             Rng& rng, CompilerOptions options = {});

  const device::DeviceModel& device() const { return *device_; }
  const qdmi::DeviceInterface& qdmi() const { return *qdmi_; }
  const CompilerOptions& compiler_options() const { return options_; }

  /// Compile (JIT, against the current calibration) and execute. Throws
  /// TransientError (kDeviceUnavailable / kTimeout / kNetwork) when the
  /// QPU is offline or an attached fault injector has an open window over
  /// one of the path's injection sites.
  /// `parent` (when valid) parents the run's span tree — callers thread
  /// their job context through so one submission stays one trace.
  RunResult run(const circuit::Circuit& circuit, std::size_t shots,
                obs::TraceContext parent = {});

  /// The variational tight-loop entry: structure phase through the cache,
  /// then a parameter bind — per-iteration compile cost is a handful of
  /// multiply-adds once the structure is warm. Same fault/tracing contract
  /// as run(), with compile.structure / compile.bind child spans.
  RunResult run_parametric(const circuit::ParametricCircuit& circuit,
                           const std::map<std::string, double>& binding,
                           std::size_t shots, obs::TraceContext parent = {});

  /// The onboarding-emulator path (§4): same JIT compilation, but the
  /// native program is sampled from its ideal distribution instead of the
  /// noisy device. Always available — it is what clients degrade to when
  /// the QPU is down. Results are tagged `emulated`.
  RunResult run_emulated(const circuit::Circuit& circuit, std::size_t shots,
                         obs::TraceContext parent = {});

  /// Compile only (exposed for transparency — §4's users asked for
  /// "greater transparency in the quantum circuit compilation process").
  CompiledProgram compile_only(const circuit::Circuit& circuit) const;

  /// Structure phase only: the cached (or freshly compiled) template for a
  /// parametric circuit under the current calibration/health/options key.
  std::shared_ptr<const CompiledTemplate> compile_structure(
      const circuit::ParametricCircuit& circuit) const;

  /// Structure phase + bind phase, uncached bind (the template itself is
  /// cached). Equivalent to compile_structure(circuit)->bind(binding).
  CompiledProgram compile_parametric(
      const circuit::ParametricCircuit& circuit,
      const std::map<std::string, double>& binding) const;

  /// Attaches a fault injector + the clock used to position queries inside
  /// its windows. Both must outlive the service; pass nullptr to detach.
  void set_fault_context(const fault::FaultInjector* injector,
                         const SimClock* clock);

  /// Attaches a tracer: run()/run_emulated() then produce qpu.run spans
  /// with compile (per-pass children) and execute stages. Must outlive the
  /// service; nullptr disables.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches a metrics registry (mqss.runs, mqss.runs_emulated,
  /// mqss.compile_cache_hits / _misses / _evictions, the
  /// mqss.compile_cache_hit_rate gauge, and the parametric-path
  /// mqss.structure_cache_hits / _misses / _size). Must outlive the
  /// service. Metrics are mirrored on the calling thread only.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Names the device this service fronts. The name is folded into every
  /// compile-cache key, so caches can never serve an entry compiled for a
  /// different device identity — fleet serving reuses one structural hash
  /// across N otherwise-identical devices, and a swapped cache (or a
  /// service re-pointed at a new device) must miss, not resurrect the old
  /// device's placements.
  void set_device_identity(const std::string& name);
  const std::string& device_identity() const { return device_identity_; }

  /// JIT compile cache controls. Enabled by default; entries are evicted
  /// least-recently-used past `capacity`. Keys carry the calibration epoch
  /// and the QDMI view's health fingerprint, so recalibrations and mask
  /// changes (even epoch-silent ones) miss instead of serving stale
  /// placements.
  void set_compile_cache_enabled(bool enabled);
  void set_compile_cache_capacity(std::size_t capacity);
  StructureCacheStats cache_stats() const { return cache_.stats(); }

  /// Serializes a run's counts in the given §2.4 output format.
  net::Payload serialize(const RunResult& result,
                         net::ResultFormat format) const;

private:
  bool fault_active(fault::FaultSite site) const;
  /// Content-addressed cache key for the current epoch / health / options.
  std::uint64_t cache_key(std::uint64_t structural_hash) const;
  /// Cache lookup for a concrete circuit, with metric mirroring.
  StructureCache::Lookup lookup_concrete(
      const circuit::Circuit& circuit) const;
  /// Cache lookup for a parametric structure, with metric mirroring.
  StructureCache::Lookup lookup_structure(
      const circuit::ParametricCircuit& circuit) const;
  /// Mirrors a lookup outcome into the bound counters/gauges (calling
  /// thread only).
  void mirror_cache_metrics(bool hit, bool structure) const;
  /// The guarded body run() and run_parametric() share: the run counter,
  /// the qpu.run span, the QDMI-query and QPU-status checks, and the error
  /// status on the span. `caller` prefixes the check failures' messages;
  /// `compile` maps the run span to the program to execute.
  template <typename CompileFn>
  RunResult run_guarded(const char* caller, std::size_t shots,
                        obs::TraceContext parent, bool parametric,
                        CompileFn compile);
  /// compile_only() plus a compile span (per-pass children, cache
  /// attributes) under `parent` when tracing is on.
  CompiledProgram compile_traced(const circuit::Circuit& circuit,
                                 obs::Span& parent);
  /// Two-phase compile with compile.structure / compile.bind child spans.
  CompiledProgram compile_parametric_traced(
      const circuit::ParametricCircuit& circuit,
      const std::map<std::string, double>& binding, obs::Span& parent);
  /// Marks `span` with the cache outcome and calibration epoch and, on a
  /// miss, adds one child span per pass in `program`'s trace.
  void trace_passes(obs::Span& span, bool hit,
                    const CompiledProgram& program) const;
  /// Adds the program's size and the cache-stats attributes the satellite
  /// dashboards read.
  void annotate_compile(obs::Span& span, const CompiledProgram& program) const;
  /// The shared post-compile path of run()/run_parametric(): execution
  /// fault sites, execute span, result assembly.
  RunResult finish_run(const CompiledProgram& program, std::size_t shots,
                       obs::Span& span);

  device::DeviceModel* device_;
  const qdmi::DeviceInterface* qdmi_;
  Rng* rng_;
  CompilerOptions options_;

  const fault::FaultInjector* injector_ = nullptr;
  const SimClock* clock_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  obs::Counter* m_runs_ = nullptr;
  obs::Counter* m_runs_emulated_ = nullptr;
  obs::Counter* m_cache_hits_ = nullptr;
  obs::Counter* m_cache_misses_ = nullptr;
  obs::Counter* m_cache_evictions_ = nullptr;
  obs::Counter* m_structure_hits_ = nullptr;
  obs::Counter* m_structure_misses_ = nullptr;
  obs::Gauge* m_cache_hit_rate_ = nullptr;
  obs::Gauge* m_structure_size_ = nullptr;

  std::string device_identity_;
  std::uint64_t identity_salt_ = 0;  ///< FNV-1a of device_identity_

  bool cache_enabled_ = true;
  mutable StructureCache cache_{256};
  /// Evictions already mirrored into m_cache_evictions_ (caller thread).
  mutable std::uint64_t mirrored_evictions_ = 0;
};

}  // namespace hpcqc::mqss
