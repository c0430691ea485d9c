// End-to-end benchmark of the stack, driven the way its users drive it.
//
//   e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//            [--trace-out <path>]
//
// Runs one workload in this process and prints one JSON object of raw
// measurements as its last line of standard output: host times, sample
// lists, counts, output-check failures and the simulated statistics the
// control plane is checked against. run.py turns them into the
// benchmark's metrics; the arithmetic lives there so it can be unit-tested.
//
// Untraced runs (--trace 0) time the workload through its public entry
// points. Traced runs (--trace 1) replay the same inputs with every call
// into a layer wrapped in an obs::Tracer span on the host clock, check that
// the replay reproduces the untraced outputs bit for bit (and at a second
// OpenMP or ingest thread count), and write the spans as a Chrome trace.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hpcqc/common/rng.hpp"
#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/device/compiled_program.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/hybrid/qaoa.hpp"
#include "hpcqc/load/driver.hpp"
#include "hpcqc/load/traffic.hpp"
#include "hpcqc/mqss/client.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/net/formats.hpp"
#include "hpcqc/obs/export.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/ops/service_campaign.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/admission.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/verify/differential.hpp"
#include "hpcqc/verify/stat_assert.hpp"

namespace {

using namespace hpcqc;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

const Clock::time_point g_epoch = Clock::now();

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double value) {
  if (!std::isfinite(value))
    throw std::runtime_error("non-finite measurement");
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// Insertion-ordered JSON object built from already-encoded values.
class JsonObject {
public:
  JsonObject& num(const std::string& key, double value) {
    return raw(key, json_number(value));
  }
  JsonObject& count(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObject& text(const std::string& key, const std::string& value) {
    return raw(key, '"' + json_escape(value) + '"');
  }
  JsonObject& flag(const std::string& key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  JsonObject& list(const std::string& key, const std::vector<double>& values) {
    std::string encoded = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      encoded += (i ? "," : "") + json_number(values[i]);
    return raw(key, encoded + "]");
  }
  JsonObject& strings(const std::string& key,
                      const std::vector<std::string>& values) {
    std::string encoded = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      encoded += (i ? ",\"" : "\"") + json_escape(values[i]) + '"';
    return raw(key, encoded + "]");
  }
  JsonObject& object(const std::string& key, const JsonObject& value) {
    return raw(key, value.str());
  }
  JsonObject& objects(const std::string& key,
                      const std::vector<JsonObject>& values) {
    std::string encoded = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
      encoded += (i ? "," : "") + values[i].str();
    return raw(key, encoded + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& encoded) {
    body_ += (body_.empty() ? "\"" : ",\"") + json_escape(key) + "\":" +
             encoded;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

private:
  std::string body_;
};

/// Output checks of one run. A failed check names itself and the operations
/// it failed: client jobs, or control-plane passes, by index. run.py adds
/// the workload, fails the run and counts the failed operations; a check of
/// the run as a whole fails every operation.
struct Checks {
  std::vector<std::string> failures;
  std::set<std::size_t> failed_ops;
  bool run_failed = false;

  bool require(bool ok, const std::vector<std::size_t>& ops,
               const std::string& check, const std::string& detail) {
    if (!ok) {
      failures.push_back(check + ": " + detail);
      failed_ops.insert(ops.begin(), ops.end());
    }
    return ok;
  }
  bool require_run(bool ok, const std::string& check,
                   const std::string& detail) {
    if (!ok) {
      failures.push_back(check + ": " + detail);
      run_failed = true;
    }
    return ok;
  }
};

/// Operations [first, first + count).
std::vector<std::size_t> op_range(std::size_t first, std::size_t count) {
  std::vector<std::size_t> ops(count);
  std::iota(ops.begin(), ops.end(), first);
  return ops;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

/// OpenMP and ingest threads: two, or one on a single-CPU machine. On a
/// 4-vCPU guest whose host is shared, four threads ran 1.3-1.7x the jobs of
/// two in quiet phases but spread no less from run to run, and in a busy
/// phase four OpenMP threads ran a 19-qubit state evolution no faster than
/// one (median 0.40 s) while two took 0.24 s: every barrier waits for the
/// slowest vCPU, and with four threads one is often taken.
int worker_threads() {
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  return std::min(2, std::max(1, cpus));
}

void set_omp_threads(int threads) {
#ifdef _OPENMP
  omp_set_num_threads(threads);
#else
  (void)threads;
#endif
}

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFULL;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

std::uint64_t fold_counts(std::uint64_t hash, const qsim::Counts& counts) {
  for (const auto& [outcome, count] : counts.raw())
    hash = fnv1a(fnv1a(hash, outcome), count);
  return hash;
}

/// Child seed `index` of `seed` (SplitMix64 over a golden-ratio stride).
std::uint64_t child_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  return splitmix64(state);
}

// ---------------------------------------------------------------------------
// Host-clock layer spans
// ---------------------------------------------------------------------------

std::unique_ptr<obs::Tracer> host_tracer(std::uint64_t seed) {
  auto tracer = std::make_unique<obs::Tracer>(seed);
  tracer->set_now_source([] { return since(g_epoch); });
  return tracer;
}

/// A span around one call into a layer; inert when tracing is off.
obs::Span layer(obs::Tracer* tracer, const char* name,
                obs::TraceContext parent = {}) {
  return tracer != nullptr ? tracer->span(name, parent) : obs::Span{};
}

struct LayerTotals {
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus the time covered by child spans
  std::uint64_t count = 0;
};

std::map<std::string, LayerTotals> aggregate(
    const std::vector<const obs::Tracer*>& tracers) {
  std::map<std::string, LayerTotals> totals;
  for (const obs::Tracer* tracer : tracers) {
    const auto& records = tracer->records();
    std::vector<double> child_time(records.size() + 1, 0.0);
    for (const auto& record : records)
      if (record.parent != obs::kNoSpan)
        child_time[record.parent] += record.duration();
    for (const auto& record : records) {
      LayerTotals& layer_totals = totals[record.name];
      layer_totals.total_s += record.duration();
      layer_totals.self_s += record.duration() - child_time[record.handle];
      layer_totals.count += 1;
    }
  }
  return totals;
}

/// Writes every tracer's spans as one Chrome trace, validates it with the
/// repository's schema checker, and reports the layer totals.
JsonObject finish_trace(const std::vector<const obs::Tracer*>& tracers,
                        const std::string& path, Checks& checks) {
  std::vector<obs::SpanRecord> spans;
  for (const obs::Tracer* tracer : tracers)
    spans.insert(spans.end(), tracer->records().begin(),
                 tracer->records().end());
  std::ostringstream trace;
  obs::write_chrome_trace(trace, spans);
  const obs::TraceValidation validation =
      obs::validate_chrome_trace(trace.str());
  checks.require_run(validation.ok, "chrome trace",
                     validation.errors.empty() ? "invalid"
                                               : validation.errors.front());
  if (!path.empty()) {
    std::ofstream file(path);
    file << trace.str() << '\n';
    checks.require_run(static_cast<bool>(file), "chrome trace",
                       "cannot write " + path);
  }
  JsonObject layers;
  for (const auto& [name, totals] : aggregate(tracers))
    layers.object(name, JsonObject()
                            .num("total_s", totals.total_s)
                            .num("self_s", totals.self_s)
                            .count("count", totals.count));
  JsonObject out;
  out.object("layers", layers)
      .count("trace_events", validation.events)
      .text("trace_file", path);
  return out;
}

/// Times a workload's set-up kSamples times over a run: once before the
/// timed region, then between its units or passes (outside their timing)
/// each time another 1/kSamples of the run's seconds has been measured. The
/// host has slow phases that last seconds, so samples taken back to back
/// land in one phase and move together from run to run; spread over the run
/// their median does not. A sample repeats a set-up shorter than
/// kSampleSeconds and reports the time per set-up.
class SetupTimer {
public:
  SetupTimer(std::function<void()> setup, double seconds)
      : setup_(std::move(setup)), seconds_(seconds) {
    sample();
  }

  /// Between units: samples if `measured_s` has reached the next share.
  void sample_if_due(double measured_s) {
    const double due = seconds_ * static_cast<double>(samples_.size()) /
                       static_cast<double>(kSamples);
    if (samples_.size() < kSamples && measured_s >= due) sample();
  }

  /// The samples, topped up back to back if the run ended early.
  const std::vector<double>& samples() {
    while (samples_.size() < kSamples) sample();
    return samples_;
  }

private:
  static constexpr std::size_t kSamples = 11;
  static constexpr double kSampleSeconds = 0.02;

  void sample() {
    const auto start = Clock::now();
    std::size_t repetitions = 0;
    double elapsed = 0.0;
    do {
      setup_();
      ++repetitions;
      elapsed = since(start);
    } while (elapsed < kSampleSeconds);
    samples_.push_back(elapsed / static_cast<double>(repetitions));
  }

  std::function<void()> setup_;
  double seconds_;
  std::vector<double> samples_;
};

// ---------------------------------------------------------------------------
// Client workloads: one user, closed loop, HPC access path
// ---------------------------------------------------------------------------

/// The machine behind the client: the 20-qubit twin, its QDMI view and the
/// MQSS service (with its compile cache). The device is the same for every
/// seed (its calibration decides placements, so it decides how much work a
/// circuit is); the seed drives only the inputs and `exec_rng`, the stream
/// the service executes on, which passes reseed per unit so that every
/// unit's results depend only on (seed, index).
struct ClientStack {
  /// Under this calibration the 6-, 7- and 8-node rings compile onto 6, 7
  /// and 8 physical qubits.
  static constexpr std::uint64_t kDeviceSeed = 2026;

  ClientStack()
      : setup_rng(kDeviceSeed),
        device(device::make_iqm20(setup_rng)),
        qdmi(device, clock),
        service(device, qdmi, exec_rng) {}

  /// A client on the in-HPC path. A client keeps every job it ran, so each
  /// unit (one user's QAOA run, one wide job) gets its own: peak memory
  /// then does not grow with how many units the host's speed allows.
  mqss::Client client() {
    return mqss::Client(service, clock, mqss::AccessPath::kHpc);
  }

  Rng setup_rng;
  Rng exec_rng;
  SimClock clock;
  device::DeviceModel device;
  qdmi::ModelBackedDevice qdmi;
  mqss::QpuService service;
};

/// Counts errored shots through the device's batch-progress hook.
struct ErroredShots final : device::ExecObserver {
  std::uint64_t errored = 0;
  void on_shot_batch(std::size_t, std::size_t, std::size_t,
                     std::size_t errored_shots, Seconds) override {
    errored += errored_shots;
  }
};

/// One completed client job as the client sees it.
struct JobOutput {
  mqss::RunResult run;
  net::Payload payload;
};

/// Per-pass counters shared by both client workloads.
struct ClientPass {
  double elapsed_s = 0.0;  ///< host time inside the measured calls
  /// Units are QAOA instances or wide jobs.
  std::vector<double> unit_s;     ///< host time per unit
  std::vector<double> unit_jobs;  ///< jobs per unit
  std::vector<double> unit_shots; ///< shots per unit
  std::size_t jobs = 0;
  std::size_t shots = 0;
  std::vector<double> latencies_s;  ///< submit -> serialized result, per job
  std::vector<std::uint64_t> fingerprints;  ///< counts, per unit
  std::uint64_t errored_shots = 0;
  std::uint64_t payload_bytes = 0;
  double amp_updates = 0.0;       ///< native gates x 2^width, per evolution
  double state_bytes_moved = 0.0; ///< read + write of the state per gate
  mqss::StructureCacheStats cache;
  std::size_t exact_checks = 0;   ///< jobs checked against the oracle

  /// Closes a unit: the jobs and shots counted since the previous one.
  void record_unit(double seconds) {
    elapsed_s += seconds;
    unit_s.push_back(seconds);
    unit_jobs.push_back(static_cast<double>(jobs) - recorded_jobs_);
    unit_shots.push_back(static_cast<double>(shots) - recorded_shots_);
    recorded_jobs_ = static_cast<double>(jobs);
    recorded_shots_ = static_cast<double>(shots);
  }

private:
  double recorded_jobs_ = 0.0;
  double recorded_shots_ = 0.0;
};

/// Submits one circuit the way the client path does. Untraced: through
/// Client::submit/wait. Traced: the calls QpuService::run makes, on the same
/// Rng, each inside its layer span — compile_only, DeviceModel::execute
/// (kAuto, with an ExecObserver), then serialize.
JobOutput run_job(ClientStack& stack, mqss::Client& client,
                  const circuit::Circuit& circuit, std::size_t shots,
                  obs::Tracer* tracer, obs::TraceContext parent,
                  ClientPass& pass) {
  JobOutput out;
  const auto start = Clock::now();
  if (tracer == nullptr) {
    out.run = client.wait(client.submit(circuit, shots, "bench")).run;
    out.payload =
        stack.service.serialize(out.run, net::ResultFormat::kHistogram);
  } else {
    mqss::CompiledProgram program;
    {
      obs::Span span = layer(tracer, "mqss.compile", parent);
      program = stack.service.compile_only(circuit);
    }
    ErroredShots observer;
    device::ExecutionResult exec;
    {
      obs::Span span = layer(tracer, "device.execute", parent);
      exec = stack.device.execute(program.native_circuit, shots,
                                  stack.exec_rng, device::ExecutionMode::kAuto,
                                  &observer);
    }
    pass.errored_shots += observer.errored;
    out.run.counts = std::move(exec.counts);
    out.run.estimated_fidelity = exec.estimated_fidelity;
    out.run.qpu_time = exec.wall_time;
    out.run.native_gate_count = program.native_gate_count;
    out.run.swap_count = program.swap_count;
    out.run.initial_layout = program.initial_layout;
    stack.clock.advance(exec.wall_time);  // as Client::submit does
    {
      obs::Span span = layer(tracer, "net.serialize", parent);
      out.payload =
          stack.service.serialize(out.run, net::ResultFormat::kHistogram);
    }
  }
  pass.latencies_s.push_back(since(start));
  pass.jobs += 1;
  pass.shots += shots;
  pass.payload_bytes += out.payload.size_bytes();
  return out;
}

/// Checks every client result (job `op` of its pass): the requested shots,
/// outcomes inside the measured register, and a payload that decodes to the
/// same histogram.
void check_histogram(const JobOutput& out, std::size_t shots, int width,
                     std::size_t op, Checks& checks) {
  const qsim::Counts& counts = out.run.counts;
  checks.require(counts.total_shots() == shots, {op}, "shot count",
                 std::to_string(counts.total_shots()) + " of " +
                     std::to_string(shots));
  checks.require(counts.num_qubits() == width &&
                     (counts.raw().empty() ||
                      counts.raw().rbegin()->first < (1ULL << width)),
                 {op}, "outcome range",
                 "outcome outside the measured register");
  const qsim::Counts decoded = net::decode_histogram(out.payload);
  checks.require(decoded.raw() == counts.raw(), {op}, "payload round trip",
                 "decoded histogram differs from the result");
}

/// One pass of a client workload.
struct PassPlan {
  double seconds = 1e300;  ///< stop once this much time is measured
  std::size_t max_units = static_cast<std::size_t>(-1);  ///< or this many
  obs::Tracer* tracer = nullptr;  ///< layer spans (the traced replay)
  /// Set on the untraced pass only, which takes set-up samples between its
  /// units and, in variational_loop, runs the oracle checks after them.
  SetupTimer* setup = nullptr;
};

// --- variational_loop ------------------------------------------------------

constexpr int kQaoaDepth = 2;
constexpr std::size_t kQaoaShots = 256;
constexpr std::size_t kSpsaIterations = 16;
/// SPSA: one start, two per iteration, one final; QAOA: one final sample.
constexpr std::size_t kQaoaCircuits = 2 * kSpsaIterations + 3;
/// Consecutive instances cover each ring size once.
constexpr std::size_t kQaoaRound = 3;

/// Instances a pass can run: about two and a half times what a 30 s pass
/// reaches on a 4-vCPU guest. A pass that runs out of them ends early.
constexpr std::size_t kQaoaInstances = 256;

/// One QAOA-MaxCut instance on a ring, with the seed of its optimizer and
/// execution streams.
struct QaoaInstance {
  int nodes = 6;
  std::uint64_t seed = 0;
  hybrid::QaoaMaxCut qaoa;
};

/// The first `count` instances of `seed`. Ring sizes cycle through 6, 7 and
/// 8 nodes, so every run holds the same mix.
std::vector<QaoaInstance> qaoa_instances(std::uint64_t seed,
                                         std::size_t count) {
  hybrid::QaoaOptions options;
  options.depth = kQaoaDepth;
  options.shots = kQaoaShots;
  options.spsa.iterations = kSpsaIterations;
  std::vector<QaoaInstance> instances;
  instances.reserve(count);
  for (std::size_t index = 0; index < count; ++index) {
    const int nodes = 6 + static_cast<int>((seed + index) % 3);
    std::vector<std::pair<int, int>> edges;
    for (int v = 0; v < nodes; ++v) edges.emplace_back(v, (v + 1) % nodes);
    instances.push_back({nodes, child_seed(seed, index),
                         hybrid::QaoaMaxCut(nodes, std::move(edges), options)});
  }
  return instances;
}

/// One job of a QAOA instance, kept for the oracle checks.
struct ExactSample {
  circuit::Circuit circuit{1};
  qsim::Counts counts;
  std::size_t job = 0;  ///< index of the job in its pass
};

/// Cut of `bits` on the ring of `nodes` nodes.
int ring_cut(std::uint64_t bits, int nodes) {
  int cut = 0;
  for (int v = 0; v < nodes; ++v)
    cut += static_cast<int>(((bits >> v) ^ (bits >> ((v + 1) % nodes))) & 1U);
  return cut;
}

/// Checks QAOA results against the exact noisy distribution of their
/// compiled program, from the density-matrix oracle of verify/. The oracle
/// compiles on a stack of its own, so a stale compile-cache entry of the
/// pass cannot hide. Its cost grows as 4^n (on a 4-vCPU KVM guest: 0.06 s
/// for a 6-node ring, 0.26 s for 7, 1.2 s for 8), so it checks the 6-node
/// instance of every round (a round holds each ring size once) and every
/// instance of the last round.
///  - Each checked instance's sampled job: the mean cut of its 256-shot
///    histogram, the quantity the optimizer consumes, within 5 standard
///    errors of the exact mean, and a chi-squared fit at a 1e-6 false-alarm
///    rate; and the sum of those chi-squared statistics over every checked
///    job, at 1e-6, which sees a small error that persists through the run.
///  - The last round's sampled jobs, each rerun kExactReruns times at the
///    workload's 256 shots (so kAuto keeps the trajectory engine) through
///    the pass's own service after its timed units, on the compile cache as
///    the run left it (evicting once 256 distinct circuits have run):
///    chi-squared and TVD of the merged histogram at 1e-6 each, which have
///    the power to see a distribution that is wrong by a few percent.
/// Placements wider than kExactMaxQubits are skipped. Returns the number of
/// jobs checked.
std::size_t check_exact(ClientStack& stack, std::uint64_t seed,
                        const std::vector<ExactSample>& samples,
                        Checks& checks) {
  constexpr int kEveryRoundNodes = 6;
  constexpr int kExactMaxQubits = 8;
  constexpr std::size_t kExactReruns = 64;
  ClientStack oracle;
  stack.exec_rng = Rng(child_seed(seed, 0xE7AC7ULL));
  mqss::Client client = stack.client();
  const std::size_t last_round =
      samples.size() - std::min(samples.size(), kQaoaRound);
  std::vector<std::size_t> checked;
  double statistic = 0.0;
  int dof = 0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ExactSample& sample = samples[i];
    const int nodes = sample.circuit.num_qubits();
    if (nodes != kEveryRoundNodes && i < last_round) continue;
    if (sample.counts.num_qubits() != nodes) continue;  // failed its range
    const mqss::CompiledProgram compiled =
        oracle.service.compile_only(sample.circuit);
    const device::CompiledProgram program(compiled.native_circuit,
                                          oracle.device.topology(),
                                          oracle.device.calibration());
    if (program.dense_qubits() > kExactMaxQubits) continue;
    const std::vector<double> exact = verify::exact_noisy_distribution(
        program, verify::dense_readout_for(oracle.device, program));
    double mean = 0.0, square = 0.0, observed = 0.0;
    for (std::size_t x = 0; x < exact.size(); ++x) {
      const double cut = ring_cut(x, nodes);
      mean += exact[x] * cut;
      square += exact[x] * cut * cut;
    }
    for (const auto& [outcome, count] : sample.counts.raw())
      observed += static_cast<double>(count) * ring_cut(outcome, nodes);
    const double shots = static_cast<double>(sample.counts.total_shots());
    observed /= shots;
    const double error = std::sqrt((square - mean * mean) / shots);
    checks.require(std::abs(observed - mean) <= 5.0 * error, {sample.job},
                   "exact mean cut",
                   json_number(observed) + " vs " + json_number(mean));
    const verify::ChiSquared own =
        verify::chi_squared_test(sample.counts, exact, 1e-6);
    checks.require(own.pass, {sample.job}, "exact distribution",
                   own.describe());
    statistic += own.statistic;
    dof += own.dof;
    checked.push_back(sample.job);
    if (i < last_round) continue;
    qsim::Counts rerun;
    rerun.set_num_qubits(nodes);
    for (std::size_t k = 0; k < kExactReruns; ++k) {
      const qsim::Counts counts =
          client.wait(client.submit(sample.circuit, kQaoaShots)).run.counts;
      if (!checks.require(counts.num_qubits() == nodes, {sample.job},
                          "exact distribution of 64 reruns",
                          "a rerun measured " +
                              std::to_string(counts.num_qubits()) +
                              " qubits of a " + std::to_string(nodes) +
                              "-node ring"))
        break;
      rerun.merge(counts);
    }
    if (rerun.total_shots() != kExactReruns * kQaoaShots) continue;
    const verify::ChiSquared chi = verify::chi_squared_test(rerun, exact, 1e-6);
    const verify::TvdCheck tvd = verify::check_tvd(rerun, exact, 1e-6);
    checks.require(chi.pass && tvd.pass, {sample.job},
                   "exact distribution of 64 reruns",
                   chi.describe() + "; " + tvd.describe());
  }
  const double p_value =
      dof > 0 ? verify::chi_squared_sf(statistic, dof) : 1.0;
  checks.require(p_value >= 1e-6, checked, "exact distribution of all jobs",
                 "chi-squared " + json_number(statistic) + " on " +
                     std::to_string(dof) + " dof, p " + json_number(p_value));
  return checked.size();
}

/// Runs `instances` in order on a fresh stack (so the compile cache starts
/// cold) until the plan's seconds or units are reached.
ClientPass variational_pass(std::uint64_t seed,
                            const std::vector<QaoaInstance>& instances,
                            const PassPlan& plan, Checks& checks) {
  ClientStack stack;
  ClientPass pass;
  std::vector<ExactSample> samples;
  const std::size_t units = std::min(plan.max_units, instances.size());
  for (std::size_t index = 0; index < units && pass.elapsed_s < plan.seconds;
       ++index) {
    const QaoaInstance& problem = instances[index];
    const hybrid::QaoaMaxCut& qaoa = problem.qaoa;
    stack.exec_rng = Rng(problem.seed);
    Rng driver_rng(problem.seed ^ 0xD81FULL);
    mqss::Client client = stack.client();

    std::vector<std::pair<circuit::Circuit, JobOutput>> outputs;
    obs::Span instance;
    const hybrid::CircuitRunner runner = [&](const circuit::Circuit& circuit,
                                             std::size_t shots) {
      obs::Span job = layer(plan.tracer, "bench.runner", instance.context());
      JobOutput out = run_job(stack, client, circuit, shots, plan.tracer,
                              job.context(), pass);
      qsim::Counts counts = out.run.counts;
      outputs.emplace_back(circuit, std::move(out));
      return counts;
    };
    const std::size_t first_job = pass.jobs;
    const auto start = Clock::now();
    instance = layer(plan.tracer, "hybrid.qaoa");
    const hybrid::QaoaMaxCut::Result result = qaoa.run(runner, driver_rng);
    instance.end();
    pass.record_unit(since(start));

    std::uint64_t hash = kFnvOffset;
    for (std::size_t k = 0; k < outputs.size(); ++k) {
      check_histogram(outputs[k].second, kQaoaShots, problem.nodes,
                      first_job + k, checks);
      hash = fold_counts(hash, outputs[k].second.run.counts);
    }
    const std::size_t pick = (7 * index) % outputs.size();
    samples.push_back({outputs[pick].first, outputs[pick].second.run.counts,
                       first_job + pick});
    const double max_cut = problem.nodes % 2 == 0 ? problem.nodes
                                                  : problem.nodes - 1;
    checks.require(result.circuits_run == kQaoaCircuits &&
                       result.best_cut <= max_cut &&
                       qaoa.cut_value(result.best_bitstring) ==
                           result.best_cut,
                   op_range(first_job, outputs.size()), "qaoa result",
                   "instance " + std::to_string(index) + " best cut " +
                       json_number(result.best_cut));
    hash = fnv1a_double(hash, result.expected_cut);
    pass.fingerprints.push_back(hash);
    if (plan.setup != nullptr) plan.setup->sample_if_due(pass.elapsed_s);
  }
  pass.cache = stack.service.cache_stats();
  if (plan.setup != nullptr)
    pass.exact_checks = check_exact(stack, seed, samples, checks);
  return pass;
}

// --- wide_sampling ---------------------------------------------------------

/// A wide circuit whose ideal output distribution is known exactly: uniform
/// over `support`. GHZ: H plus a CX chain. Brickwork: X on a random input,
/// H on two random qubits, then layers of random RZ and CX bricks in random
/// directions — a reversible linear map of a 2-dimensional affine subspace,
/// so the support is computed classically below. The RZ angles make every
/// circuit distinct (and change no outcome probability).
struct WideJob {
  circuit::Circuit circuit{1};
  std::size_t shots = 0;
  std::vector<std::uint64_t> support;
};

constexpr int kBrickLayers = 2;
/// Consecutive jobs cover each (kind, width) once.
constexpr std::size_t kWideRound = 6;
/// Jobs a pass can run: about two and a half times what a 30 s pass reaches
/// on a 4-vCPU guest. A pass that runs out of them ends early.
constexpr std::size_t kWideJobs = 256;

WideJob wide_job(std::uint64_t seed, std::size_t index) {
  Rng rng(child_seed(seed, index));
  const int width = 18 + static_cast<int>((index / 2) % 3);
  WideJob job;
  job.circuit = circuit::Circuit(width);
  job.shots = 2000 + static_cast<std::size_t>(rng.uniform_index(6001));
  std::vector<std::pair<int, int>> cxs;
  std::uint64_t input = 0;
  std::vector<int> free_bits;
  if (index % 2 == 0) {
    job.circuit.h(0);
    free_bits.push_back(0);
    for (int q = 0; q + 1 < width; ++q) cxs.emplace_back(q, q + 1);
    for (const auto& [c, t] : cxs) job.circuit.cx(c, t);
    for (int q = 0; q < width; ++q) job.circuit.rz(rng.uniform(-3.0, 3.0), q);
  } else {
    input = rng() & ((1ULL << width) - 1);
    for (int q = 0; q < width; ++q)
      if ((input >> q) & 1ULL) job.circuit.x(q);
    while (free_bits.size() < 2) {
      const int q = static_cast<int>(rng.uniform_index(width));
      if (std::find(free_bits.begin(), free_bits.end(), q) == free_bits.end())
        free_bits.push_back(q);
    }
    for (const int q : free_bits) job.circuit.h(q);
    for (int layer_index = 0; layer_index < kBrickLayers; ++layer_index) {
      for (int q = 0; q < width; ++q)
        job.circuit.rz(rng.uniform(-3.0, 3.0), q);
      for (int q = layer_index % 2; q + 1 < width; q += 2) {
        const bool forward = rng.bernoulli(0.5);
        const int c = forward ? q : q + 1;
        const int t = forward ? q + 1 : q;
        cxs.emplace_back(c, t);
        job.circuit.cx(c, t);
      }
    }
  }
  job.circuit.measure();
  for (std::uint64_t a = 0; a < (1ULL << free_bits.size()); ++a) {
    std::uint64_t bits = input;
    for (std::size_t k = 0; k < free_bits.size(); ++k) {
      bits &= ~(1ULL << free_bits[k]);
      bits |= ((a >> k) & 1ULL) << free_bits[k];
    }
    for (const auto& [c, t] : cxs)
      if ((bits >> c) & 1ULL) bits ^= 1ULL << t;
    job.support.push_back(bits);
  }
  return job;
}

std::vector<WideJob> wide_jobs(std::uint64_t seed) {
  std::vector<WideJob> jobs;
  jobs.reserve(kWideJobs);
  for (std::size_t index = 0; index < kWideJobs; ++index)
    jobs.push_back(wide_job(seed, index));
  return jobs;
}

/// The result (job `op`) against the analytic expectation. Under the
/// device's global-depolarizing model a shot lands in the ideal support with
/// probability ~ the estimated circuit fidelity F (the model's own product
/// of gate and readout fidelities; readout asymmetry and noise landing back
/// in the support move it by < 0.02). Tolerance: 5 binomial sigmas + 0.02.
/// Within the support, each outcome holds 1/|support| of the shots up to
/// readout asymmetry; a factor-of-two band catches a broken state.
void check_wide(const WideJob& job, const JobOutput& out, std::size_t op,
                Checks& checks) {
  check_histogram(out, job.shots, job.circuit.num_qubits(), op, checks);
  const qsim::Counts& counts = out.run.counts;
  std::uint64_t in_support = 0;
  for (const std::uint64_t outcome : job.support)
    in_support += counts.count_of(outcome);
  const double shots = static_cast<double>(job.shots);
  const double fidelity = out.run.estimated_fidelity;
  const double observed = static_cast<double>(in_support) / shots;
  const double tolerance =
      5.0 * std::sqrt(fidelity * (1.0 - fidelity) / shots) + 0.02;
  checks.require(std::abs(observed - fidelity) <= tolerance, {op},
                 "support probability",
                 json_number(observed) + " vs estimated fidelity " +
                     json_number(fidelity));
  const double share = 1.0 / static_cast<double>(job.support.size());
  for (const std::uint64_t outcome : job.support) {
    const double part = in_support == 0
                            ? 0.0
                            : static_cast<double>(counts.count_of(outcome)) /
                                  static_cast<double>(in_support);
    checks.require(part >= 0.5 * share && part <= 1.5 * share, {op},
                   "support balance",
                   "outcome " + hex64(outcome) + " holds " +
                       json_number(part));
  }
}

/// Native gates x 2^width: the amplitude updates of one ideal evolution.
void count_state_work(const mqss::RunResult& run, int width,
                      ClientPass& pass) {
  const double amplitudes = std::ldexp(1.0, width);
  const double gates = static_cast<double>(run.native_gate_count);
  pass.amp_updates += gates * amplitudes;
  pass.state_bytes_moved +=
      gates * amplitudes * 2.0 * static_cast<double>(sizeof(qsim::Complex));
}

/// Runs `jobs` in order on a fresh stack (so the compile cache starts cold)
/// until the plan's seconds or units are reached.
ClientPass wide_pass(std::uint64_t seed, const std::vector<WideJob>& jobs,
                     const PassPlan& plan, Checks& checks) {
  ClientStack stack;
  ClientPass pass;
  const std::size_t units = std::min(plan.max_units, jobs.size());
  for (std::size_t index = 0; index < units && pass.elapsed_s < plan.seconds;
       ++index) {
    const WideJob& job = jobs[index];
    stack.exec_rng = Rng(child_seed(seed ^ 0x51DEULL, index));
    mqss::Client client = stack.client();
    const std::size_t op = pass.jobs;
    const auto start = Clock::now();
    obs::Span root = layer(plan.tracer, "bench.job");
    const JobOutput out = run_job(stack, client, job.circuit, job.shots,
                                  plan.tracer, root.context(), pass);
    root.end();
    pass.record_unit(since(start));
    check_wide(job, out, op, checks);
    count_state_work(out.run, job.circuit.num_qubits(), pass);
    pass.fingerprints.push_back(fold_counts(kFnvOffset, out.run.counts));
    if (plan.setup != nullptr) plan.setup->sample_if_due(pass.elapsed_s);
  }
  pass.cache = stack.service.cache_stats();
  return pass;
}

JsonObject client_pass_json(const ClientPass& pass) {
  return JsonObject()
      .num("elapsed_s", pass.elapsed_s)
      .list("unit_s", pass.unit_s)
      .list("unit_jobs", pass.unit_jobs)
      .list("unit_shots", pass.unit_shots)
      .count("jobs", pass.jobs)
      .count("shots", pass.shots)
      .count("errored_shots", pass.errored_shots)
      .count("payload_bytes", pass.payload_bytes)
      .num("amp_updates", pass.amp_updates)
      .num("state_bytes_moved", pass.state_bytes_moved)
      .count("cache_hits", pass.cache.hits)
      .count("cache_misses", pass.cache.misses)
      .count("exact_checks", pass.exact_checks);
}

/// Compares a replay's per-unit counts fingerprints with the reference
/// pass's; a unit that differs fails its jobs.
void require_same_counts(const ClientPass& reference, const ClientPass& replay,
                         const std::string& what, Checks& checks) {
  const std::size_t n = replay.fingerprints.size();
  if (!checks.require_run(n > 0 && n <= reference.fingerprints.size(), what,
                          "replayed " + std::to_string(n) + " of " +
                              std::to_string(reference.fingerprints.size()) +
                              " units"))
    return;
  std::size_t first_job = 0;
  for (std::size_t unit = 0; unit < n; ++unit) {
    const auto jobs = static_cast<std::size_t>(reference.unit_jobs[unit]);
    checks.require(replay.fingerprints[unit] == reference.fingerprints[unit],
                   op_range(first_job, jobs), what,
                   "unit " + std::to_string(unit) +
                       " counts differ from the untraced run");
    first_job += jobs;
  }
}

/// Counts fingerprint of the first round (one unit of every input shape):
/// equal across traced and untraced runs, thread counts and builds that
/// produce the same outputs for the seed.
std::string round_fingerprint(const ClientPass& pass, std::size_t round) {
  std::uint64_t hash = kFnvOffset;
  for (std::size_t i = 0; i < std::min(round, pass.fingerprints.size()); ++i)
    hash = fnv1a(hash, pass.fingerprints[i]);
  return hex64(hash);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

using PassFn = std::function<ClientPass(const PassPlan&)>;

/// Untraced run of a client workload (taking set-up samples between its
/// units), and when tracing the replay checks plus the per-layer spans.
JsonObject run_client(const Args& args, SetupTimer& setup, std::size_t round,
                      const PassFn& run_pass, Checks& checks) {
  PassPlan plan;
  plan.seconds = args.seconds;
  plan.setup = &setup;
  const ClientPass untraced = run_pass(plan);
  JsonObject out;
  out.list("setup_s", setup.samples())
      .count("round_units", round)
      .object("pass", client_pass_json(untraced));
  if (!args.trace) {
    out.list("latencies_s", untraced.latencies_s)
        .text("counts_fingerprint", round_fingerprint(untraced, round));
    return out;
  }
  auto tracer = host_tracer(args.seed);
  PassPlan replay;
  replay.max_units = untraced.unit_s.size();
  replay.tracer = tracer.get();
  const ClientPass traced = run_pass(replay);
  require_same_counts(untraced, traced, "traced replay", checks);
  // A second OpenMP thread count over the first two units.
  PassPlan serial;
  serial.max_units = 2;
  set_omp_threads(1);
  const ClientPass one_thread = run_pass(serial);
  set_omp_threads(worker_threads());
  require_same_counts(untraced, one_thread, "one-thread replay", checks);
  out.object("traced", client_pass_json(traced))
      .text("counts_fingerprint", round_fingerprint(traced, round))
      .num("untraced_wall_s", untraced.elapsed_s)
      .num("traced_wall_s", traced.elapsed_s)
      .object("trace", finish_trace({tracer.get()}, args.trace_out, checks));
  return out;
}

// ---------------------------------------------------------------------------
// Control plane: simulated clock, estimate-only execution
// ---------------------------------------------------------------------------

/// Recorded control-plane statistics exist for 16 scenarios; seed n runs
/// scenario n mod 16.
constexpr std::uint64_t kScenarios = 16;

std::uint64_t scenario_seed(std::uint64_t seed) {
  return 2026 + seed % kScenarios;
}

// --- the service campaign (traced runs of open_loop_admission) -------------

/// Horizon of the traced campaign: a quarter. The per-step O(records)
/// conservation audit makes the cost superlinear: it is 28 % of a 45-day
/// run and 53 % of a 90-day one (gprof), so a shorter horizon would hide it.
constexpr double kCampaignDays = 90.0;
/// Also timed, so that the audit's growth shows against the full horizon.
constexpr double kShortCampaignDays = kCampaignDays / 4;

ops::ServiceCampaignConfig campaign_config(std::uint64_t seed,
                                           double horizon) {
  ops::ServiceCampaignConfig config;
  config.seed = seed;
  config.horizon = days(horizon);
  return config;
}

JsonObject campaign_stats(const ops::ServiceCampaignResult& r) {
  return JsonObject()
      .text("fingerprint", hex64(r.fingerprint))
      .count("offered", r.offered)
      .count("completed", r.completed)
      .count("failed", r.failed)
      .count("shed", r.shed)
      .count("rejected", r.rejected)
      .count("fallback_emulated", r.fallback_emulated)
      .num("turnaround_p50_s", r.p50_turnaround)
      .num("turnaround_p99_s", r.p99_turnaround)
      .num("fleet_availability", r.fleet_availability)
      .num("worst_device_availability", r.worst_device_availability)
      .count("maintenance_windows", r.maintenance_windows)
      .count("maintenance_deferrals", r.maintenance_deferrals)
      .count("alerts_raised", r.alerts_raised)
      .flag("conservation_ok",
            r.conservation.holds() && r.conservation.in_flight == 0);
}

/// ops::ServiceCampaign::run() of the scenario over kCampaignDays, in one
/// span, with its simulated statistics (run.py checks them against the
/// recorded ones), then over kShortCampaignDays. The campaign is timed only
/// here, not end to end: on a 4-vCPU KVM guest of a shared host whole 20 s
/// runs of it read up to ~30 % slow (every pass of the run, user time as
/// much as wall time), and two sets of ten runs spread by 0.105 and 0.29,
/// past the largest bound the benchmark may set.
JsonObject traced_campaign(std::uint64_t seed, obs::Tracer& tracer) {
  ops::ServiceCampaign(campaign_config(seed, 7.0)).run();  // warm-up
  ops::ServiceCampaign campaign(campaign_config(seed, kCampaignDays));
  std::optional<ops::ServiceCampaignResult> result;
  {
    obs::Span span = layer(&tracer, "ops.campaign.run");
    result = campaign.run();
  }
  const double run_s = tracer.records().back().duration();
  {
    obs::Span span = layer(&tracer, "ops.campaign.short_run");
    ops::ServiceCampaign(campaign_config(seed, kShortCampaignDays)).run();
  }
  return JsonObject()
      .object("stats", campaign_stats(*result))
      .count("offered", result->offered)
      .num("growth_long_s", run_s)
      .num("growth_long_days", kCampaignDays)
      .num("growth_short_s", tracer.records().back().duration())
      .num("growth_short_days", kShortCampaignDays)
      .count("log_records", campaign.log().records().size())
      .count("store_samples", campaign.store().total_samples());
}

// --- open_loop_admission ----------------------------------------------------

constexpr Seconds kSlice = minutes(10.0);

sched::Qrm::Config open_loop_qrm_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
  return config;
}

load::TrafficConfig open_loop_traffic(std::uint64_t seed) {
  load::TrafficConfig config;
  config.seed = seed;
  config.tenants = 2000;
  config.duration = days(7.0);
  config.base_rate_per_hour = 420.0;
  config.max_qubits = 16;
  return config;
}

/// The service side of one open-loop pass: a fresh device and QRM (the QRM
/// recalibrates its device, so passes cannot share one).
struct OpenLoopService {
  OpenLoopService(std::uint64_t seed, const load::TrafficGenerator& traffic)
      : rng(seed),
        device(device::make_iqm20(rng)),
        qrm(device, open_loop_qrm_config(), rng),
        factory(device, traffic, seed) {}

  Rng rng;
  device::DeviceModel device;
  sched::Qrm qrm;
  load::JobFactory factory;
};

struct OpenLoopResult {
  double elapsed_s = 0.0;
  std::size_t offered = 0;
  std::uint64_t backpressure = 0;
  std::vector<std::pair<std::uint64_t, int>> outcomes;
};

/// Offers `schedule[0, end)` slice by slice from `threads` ingest threads:
/// each thread stamps its share of the slice (JobFactory::stamp), then
/// offers it through the gateway; at the slice boundary the QRM advances
/// and the gateway drains into it. `workers` (one tracer per thread) and
/// `tracer` receive the layer spans when tracing.
OpenLoopResult open_loop_pass(OpenLoopService& service,
                              const std::vector<load::Arrival>& schedule,
                              std::size_t end, std::size_t threads,
                              obs::Tracer* tracer,
                              std::vector<std::unique_ptr<obs::Tracer>>*
                                  workers) {
  sched::Qrm& qrm = service.qrm;
  const load::JobFactory& factory = service.factory;
  sched::AdmissionGateway gateway(qrm, {});
  OpenLoopResult result;
  result.outcomes.reserve(end);
  const auto start = Clock::now();
  std::size_t next = 0;
  Seconds slice_end = qrm.now() + kSlice;
  while (next < end) {
    std::size_t last = next;
    while (last < end && schedule[last].time < slice_end) ++last;
    if (last > next) {
      obs::Span ingest = layer(tracer, "load.ingest");
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (std::size_t w = 0; w < threads; ++w) {
        obs::Tracer* own =
            workers != nullptr ? (*workers)[w].get() : nullptr;
        pool.emplace_back([&, w, own] {
          std::vector<sched::StampedJob> stamped;
          {
            obs::Span span = layer(own, "load.stamp");
            for (std::size_t k = next + w; k < last; k += threads)
              stamped.push_back(factory.stamp(schedule[k]));
          }
          obs::Span span = layer(own, "sched.gateway.offer");
          for (sched::StampedJob& item : stamped)
            gateway.offer(std::move(item));
        });
      }
      for (std::thread& worker : pool) worker.join();
    }
    {
      obs::Span span = layer(tracer, "sched.qrm.advance");
      qrm.advance_to(slice_end);
    }
    {
      obs::Span span = layer(tracer, "sched.qrm.admit");
      const auto batch = gateway.drain_and_admit();
      result.outcomes.insert(result.outcomes.end(), batch.begin(),
                             batch.end());
    }
    next = last;
    slice_end += kSlice;
  }
  {
    obs::Span span = layer(tracer, "sched.qrm.advance");
    qrm.drain();
  }
  result.elapsed_s = since(start);
  result.offered = end;
  result.backpressure = gateway.backpressure_events();
  return result;
}

/// The simulated outcome of a pass, folded the way load::OpenLoopDriver
/// folds it (so the two fingerprints are comparable).
JsonObject open_loop_stats(const OpenLoopService& service,
                           OpenLoopResult& result, bool conservation_ok,
                           std::uint64_t* fingerprint) {
  std::sort(result.outcomes.begin(), result.outcomes.end());
  std::size_t completed = 0, rejected = 0, failed = 0, shed = 0;
  std::vector<double> waits;
  std::uint64_t hash = kFnvOffset;
  for (const auto& [ticket, id] : result.outcomes) {
    const sched::QuantumJobRecord& record = service.qrm.record(id);
    switch (record.state) {
      case sched::QuantumJobState::kCompleted:
        ++completed;
        waits.push_back(record.wait_time());
        break;
      case sched::QuantumJobState::kRejectedOverload:
      case sched::QuantumJobState::kRejectedTooWide:
        ++rejected;
        break;
      case sched::QuantumJobState::kFailed:
        ++failed;
        break;
      case sched::QuantumJobState::kShed:
        ++shed;
        break;
      default:
        break;
    }
    hash = fnv1a(hash, ticket);
    hash = fnv1a(hash, static_cast<std::uint64_t>(id));
    hash = fnv1a(hash, static_cast<std::uint64_t>(record.state));
    hash = fnv1a_double(hash, record.end_time);
  }
  std::sort(waits.begin(), waits.end());
  const auto pick = [&waits](double q) {
    return waits.empty() ? 0.0
                         : waits[static_cast<std::size_t>(
                               q * static_cast<double>(waits.size() - 1))];
  };
  *fingerprint = hash;
  return JsonObject()
      .text("fingerprint", hex64(hash))
      .count("offered", result.offered)
      .count("completed", completed)
      .count("rejected", rejected)
      .count("failed", failed)
      .count("shed", shed)
      .num("queue_wait_p50_s", pick(0.50))
      .num("queue_wait_p99_s", pick(0.99))
      .num("makespan_s", service.qrm.now())
      .flag("conservation_ok", conservation_ok);
}

JsonObject run_open_loop(const Args& args, Checks& checks) {
  const std::uint64_t seed = scenario_seed(args.seed);
  const auto threads = static_cast<std::size_t>(worker_threads());
  std::optional<load::TrafficGenerator> traffic;
  std::vector<load::Arrival> schedule;
  SetupTimer setup(
      [&] {
        traffic.emplace(open_loop_traffic(seed));
        schedule = traffic->generate();
        OpenLoopService service(seed, *traffic);
      },
      args.seconds);
  // Pass `op` conserves its jobs.
  const auto audit = [&checks](const OpenLoopService& service,
                               std::size_t op) {
    const sched::JobConservation c = service.qrm.conservation();
    return checks.require(c.holds() && c.in_flight == 0, {op}, "conservation",
                          std::to_string(c.submitted) + " submitted, " +
                              std::to_string(c.terminal()) + " terminal");
  };
  {  // warm-up: the first simulated day
    OpenLoopService service(seed, *traffic);
    std::size_t day = 0;
    while (day < schedule.size() && schedule[day].time < days(1.0)) ++day;
    open_loop_pass(service, schedule, day, threads, nullptr, nullptr);
  }
  std::vector<double> pass_s;
  std::vector<JsonObject> pass_stats;
  std::uint64_t reference = 0;
  double measured = 0.0;
  do {
    OpenLoopService service(seed, *traffic);
    OpenLoopResult result = open_loop_pass(service, schedule, schedule.size(),
                                           threads, nullptr, nullptr);
    pass_s.push_back(result.elapsed_s);
    measured += result.elapsed_s;
    std::uint64_t fingerprint = 0;
    const bool conserved = audit(service, pass_stats.size());
    pass_stats.push_back(
        open_loop_stats(service, result, conserved, &fingerprint));
    if (pass_stats.size() == 1) reference = fingerprint;
    setup.sample_if_due(measured);
  } while (!args.trace && measured < args.seconds);
  JsonObject out;
  out.list("setup_s", setup.samples())
      .list("pass_s", pass_s)
      .count("offered", schedule.size())
      .num("sim_days", to_days(days(7.0)))
      .objects("pass_stats", pass_stats);
  if (!args.trace) return out;

  // Traced replay: main-thread spans plus one tracer per ingest thread.
  auto tracer = host_tracer(args.seed);
  std::vector<std::unique_ptr<obs::Tracer>> workers;
  for (std::size_t w = 0; w < threads; ++w)
    workers.push_back(host_tracer(child_seed(args.seed, w)));
  OpenLoopService service(seed, *traffic);
  OpenLoopResult traced = open_loop_pass(service, schedule, schedule.size(),
                                         threads, tracer.get(), &workers);
  bool conserved = false;
  {
    obs::Span span = layer(tracer.get(), "sched.qrm.audit");
    conserved = audit(service, 0);
  }
  // The replays reproduce pass 0, or fail it.
  std::uint64_t fingerprint = 0;
  open_loop_stats(service, traced, conserved, &fingerprint);
  checks.require(fingerprint == reference, {0}, "traced replay",
                 hex64(fingerprint) + " vs " + hex64(reference));
  {  // one ingest thread
    OpenLoopService single(seed, *traffic);
    OpenLoopResult result = open_loop_pass(single, schedule, schedule.size(),
                                           1, nullptr, nullptr);
    std::uint64_t one = 0;
    open_loop_stats(single, result, true, &one);
    checks.require(one == reference, {0}, "one-thread replay",
                   hex64(one) + " vs " + hex64(reference));
  }
  {  // the library's own driver over the same schedule
    OpenLoopService driven(seed, *traffic);
    load::OpenLoopDriver::Config config;
    config.ingest_threads = threads;
    config.slice = kSlice;
    const load::LoadReport report =
        load::OpenLoopDriver(config).run(driven.qrm, driven.factory, schedule);
    checks.require(report.fingerprint == reference, {0}, "driver replay",
                   hex64(report.fingerprint) + " vs " + hex64(reference));
  }
  out.object("campaign", traced_campaign(seed, *tracer));
  std::vector<const obs::Tracer*> all = {tracer.get()};
  for (const auto& worker : workers) all.push_back(worker.get());
  out.num("untraced_wall_s", pass_s.front())
      .num("traced_wall_s", traced.elapsed_s)
      .count("backpressure_events", traced.backpressure)
      .object("trace", finish_trace(all, args.trace_out, checks));
  return out;
}

// ---------------------------------------------------------------------------

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--trace-out") args.trace_out = value;
    else throw std::invalid_argument("unknown option " + key);
  }
  if (args.seconds <= 0.0)
    throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
    set_omp_threads(worker_threads());
    Checks checks;
    JsonObject out;
    // A client workload's set-up samples build a throwaway stack and copy
    // of the inputs: samples are also taken while a pass runs over the
    // real ones.
    if (args.workload == "variational_loop") {
      SetupTimer setup(
          [&] {
            ClientStack stack;
            qaoa_instances(args.seed, kQaoaInstances);
          },
          args.seconds);
      const std::vector<QaoaInstance> instances =
          qaoa_instances(args.seed, kQaoaInstances);
      {  // warm-up: one QAOA instance
        Checks ignored;
        PassPlan warm;
        warm.max_units = 1;
        const std::uint64_t seed = child_seed(args.seed, 0xAAAA);
        variational_pass(seed, qaoa_instances(seed, 1), warm, ignored);
      }
      out = run_client(
          args, setup, kQaoaRound,
          [&](const PassPlan& plan) {
            return variational_pass(args.seed, instances, plan, checks);
          },
          checks);
    } else if (args.workload == "wide_sampling") {
      SetupTimer setup(
          [&] {
            ClientStack stack;
            wide_jobs(args.seed);
          },
          args.seconds);
      const std::vector<WideJob> jobs = wide_jobs(args.seed);
      {  // warm-up: one 20-qubit job on a throwaway stack
        ClientStack stack;
        mqss::Client client = stack.client();
        ClientPass pass;
        const WideJob job = wide_job(child_seed(args.seed, 0xAAAA), 4);
        run_job(stack, client, job.circuit, job.shots, nullptr, {}, pass);
      }
      out = run_client(
          args, setup, kWideRound,
          [&](const PassPlan& plan) {
            return wide_pass(args.seed, jobs, plan, checks);
          },
          checks);
    } else if (args.workload == "open_loop_admission") {
      out = run_open_loop(args, checks);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    std::vector<double> failed_ops(checks.failed_ops.begin(),
                                   checks.failed_ops.end());
    out.text("workload", args.workload)
        .count("threads", static_cast<std::uint64_t>(worker_threads()))
        .strings("check_failures", checks.failures)
        .list("failed_ops", failed_ops)
        .flag("run_failed", checks.run_failed)
        .num("peak_rss_mb", peak_rss_mb());
    std::cout << out.str() << std::endl;
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "e2ebench: " << args.workload << ": " << error.what()
              << std::endl;
    return 2;
  }
}
