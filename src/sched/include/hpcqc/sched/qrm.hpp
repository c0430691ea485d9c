#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/calibration/controller.hpp"
#include "hpcqc/calibration/routines.hpp"
#include "hpcqc/circuit/circuit.hpp"
#include "hpcqc/circuit/parametric.hpp"
#include "hpcqc/common/log.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/qdmi.hpp"
#include "hpcqc/sched/accounting.hpp"
#include "hpcqc/sched/journal.hpp"

namespace hpcqc::mqss {
class QpuService;
}

namespace hpcqc::sched {

struct QrmDurableState;
struct RestoreSummary;

/// Priority class used by admission control and brownout shedding.
enum class JobPriority { kHigh, kNormal, kLow };

const char* to_string(JobPriority priority);

/// One quantum job: a compiled (topology-legal) circuit and a shot budget.
struct QuantumJob {
  std::string name;
  circuit::Circuit circuit{1};  ///< trivial placeholder until assigned
  std::size_t shots = 1000;
  /// Accounting project; empty = unmetered (system/benchmark jobs).
  std::string project;
  JobPriority priority = JobPriority::kNormal;
  /// Optional parent trace context (set by the submitting client so the
  /// QRM's job spans attach under the client's submission span).
  obs::TraceContext trace{};
  /// Parametric submission (variational tight loop): when set, the QRM
  /// requires an attached compile service (set_compile_service), binds
  /// `parametric` at `binding` for admission estimates, and at dispatch
  /// compiles through the service's two-phase structure cache — the
  /// structure phase is shared across every job with the same circuit
  /// shape. `circuit` is ignored and overwritten with the binding.
  std::shared_ptr<const circuit::ParametricCircuit> parametric{};
  std::map<std::string, double> binding{};
  /// Devices this job has been migrated off (see Fleet). Carried so the
  /// destination's record shows the full hop count.
  std::size_t migrations = 0;
  /// Set on jobs re-submitted by cross-device migration: admission was
  /// already charged once fleet-wide, so the destination skips its token
  /// bucket and brownout class suspension (the hard queue-capacity cap
  /// still applies — migration never overflows a peer).
  bool migrated_in = false;
};

enum class QuantumJobState {
  kQueued,
  kRunning,
  kCompleted,
  kRetrying,   ///< failed an attempt, waiting out its backoff
  kFailed,     ///< retry budget exhausted; dead-lettered
  kCancelled,  ///< withdrawn before completion
  /// Refused at submit: queue full, token bucket dry, or a brownout
  /// suspending the job's priority class.
  kRejectedOverload,
  /// Refused at submit: the circuit is wider than the largest healthy
  /// connected component of the degraded device.
  kRejectedTooWide,
  /// Shed from the queue by brownout mode before it ever started.
  kShed,
  /// Extracted by cross-device migration: the job left this QRM's queue and
  /// was re-submitted to a healthy peer (terminal *here*; the fleet record
  /// follows the job to its new device).
  kMigrated,
};

const char* to_string(QuantumJobState state);

/// True for the states a job can never leave.
constexpr bool is_terminal(QuantumJobState state) {
  switch (state) {
    case QuantumJobState::kCompleted:
    case QuantumJobState::kFailed:
    case QuantumJobState::kCancelled:
    case QuantumJobState::kRejectedOverload:
    case QuantumJobState::kRejectedTooWide:
    case QuantumJobState::kShed:
    case QuantumJobState::kMigrated:
      return true;
    case QuantumJobState::kQueued:
    case QuantumJobState::kRunning:
    case QuantumJobState::kRetrying:
      return false;
  }
  return false;
}

/// Per-job retry policy: attempts are spent on transient execution faults
/// (not on outages — an offline QPU requeues the job without charging an
/// attempt), with exponential backoff in simulated time between attempts.
struct RetryPolicy {
  std::size_t max_attempts = 3;  ///< total attempts, including the first
  Seconds initial_backoff = seconds(30.0);
  double backoff_factor = 2.0;
  Seconds max_backoff = hours(2.0);

  /// Backoff after the `failures`-th failed attempt (1-based).
  Seconds backoff(std::size_t failures) const;
};

/// Admission control for the bounded job queue: per-priority token buckets
/// (sustained rate + burst headroom, refilled in simulated time), a hard
/// queue-capacity cap, and a brownout mode that sheds low-priority work when
/// the estimated wait exceeds a deadline. Overloaded submissions are refused
/// with an explicit terminal state instead of growing the queue without
/// bound — the QRM keeps serving under queue floods.
struct AdmissionPolicy {
  std::size_t queue_capacity = 256;
  std::size_t dead_letter_capacity = 64;

  /// Sustained admission rates (jobs/hour) per priority class.
  double high_rate_per_hour = 3600.0;
  double normal_rate_per_hour = 1800.0;
  double low_rate_per_hour = 600.0;
  /// Bucket depth: how many submissions a class may burst above its rate.
  double burst = 64.0;

  /// Brownout: entered when the estimated wait exceeds this limit. While
  /// active, queued low-priority jobs are shed and new low-priority
  /// submissions are refused. Exited (with hysteresis) once the estimated
  /// wait falls below `brownout_exit_fraction` x the limit.
  Seconds brownout_wait_limit = hours(8.0);
  double brownout_exit_fraction = 0.5;

  /// Per-tenant fairness: one project may occupy at most this fraction of
  /// the queue capacity with pending (queued + retry-backlog) jobs; the
  /// excess is refused kRejectedOverload with a fair-share reason. 1.0
  /// disables the cap. This is what keeps a single tenant flooding at 10x
  /// the fleet's capacity from starving everybody else: the flood fills
  /// its share and the rest of the queue stays open.
  double max_tenant_queue_share = 1.0;
  /// Per-tenant sustained admission rate (jobs/hour); 0 disables tenant
  /// rate metering. Applies on top of the per-priority class buckets.
  double tenant_rate_per_hour = 0.0;
  /// Per-tenant burst depth (used only when tenant_rate_per_hour > 0).
  double tenant_burst = 32.0;
  /// Cardinality cap on the per-tenant metric series: the first this-many
  /// distinct projects get dedicated qrm.tenant.<project>.* counters, the
  /// long tail shares one qrm.tenant.other.* rollup. Under zipf traffic
  /// the heavy hitters arrive first with overwhelming probability, so the
  /// dedicated set is in practice the top-K — while fairness caps and
  /// rate quotas stay exact for every tenant regardless. 0 rolls every
  /// project into the shared series.
  std::size_t tenant_metric_series = 64;
};

/// Lifecycle + result record of a quantum job.
struct QuantumJobRecord {
  int id = 0;
  std::string name;
  std::size_t shots = 0;
  QuantumJobState state = QuantumJobState::kQueued;
  Seconds submit_time = 0.0;
  Seconds start_time = -1.0;
  Seconds end_time = -1.0;
  device::ExecutionResult result;  ///< valid when completed

  std::size_t attempts = 0;       ///< execution attempts started
  std::size_t interruptions = 0;  ///< outage requeues (no attempt charged)
  std::size_t migrations = 0;     ///< devices the job left before this one
  /// Execution estimate (overhead + shots x shot duration) cached at
  /// submit; the O(1) wait estimate adds/removes exactly this value as the
  /// job moves between the queue, the retry backlog, and the device.
  Seconds estimated_cost = 0.0;
  Seconds next_retry_at = -1.0;   ///< valid while kRetrying
  std::string failure_reason;     ///< last failure / cancellation reason
  JobPriority priority = JobPriority::kNormal;
  /// Trace context of this job's root span (invalid without a tracer).
  /// Downstream consumers (mitigation, analysis) attach their spans here.
  obs::TraceContext trace{};

  Seconds wait_time() const {
    return start_time < 0.0 ? -1.0 : start_time - submit_time;
  }
};

/// Terminal record of a job whose retry budget ran out — the §4 "robust
/// job restart" story's other half: exhausted jobs land here instead of
/// silently vanishing, so operators (and tests) can audit what was lost.
struct DeadLetterRecord {
  int id = 0;
  std::string name;
  std::size_t attempts = 0;
  std::string reason;
  Seconds failed_at = 0.0;
  /// The original payload, so a drained record can be re-submitted after
  /// recovery. drain_dead_letters() points job.trace back at the failed
  /// run's root context when the client supplied none, so a replay joins
  /// the original trace.
  QuantumJob job;
  obs::TraceContext trace{};  ///< root span context of the failed run
};

/// Audit that no submitted job was silently lost: every id is in exactly one
/// state, and after a drain every state is terminal. Read from the per-state
/// ledger that every job-state change moves; tests cross-check it against a
/// walk over the job records.
struct JobConservation {
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;     ///< dead-lettered
  std::size_t cancelled = 0;
  std::size_t rejected_overload = 0;
  std::size_t rejected_too_wide = 0;
  std::size_t shed = 0;
  std::size_t migrated = 0;   ///< handed to a peer device (terminal here)
  std::size_t in_flight = 0;  ///< queued + running + retrying

  std::size_t terminal() const {
    return completed + failed + cancelled + rejected_overload +
           rejected_too_wide + shed + migrated;
  }
  bool holds() const { return submitted == terminal() + in_flight; }
};

/// The Quantum Resource Manager: the second-level scheduler of the MQSS
/// architecture (Fig. 2). It serializes access to the single QPU, runs the
/// periodic health benchmarks, and starts the automated recalibrations at
/// times chosen by its trigger policy — including the scheduler-controlled
/// policy that aligns calibration slots with the user workload (Lesson 2).
class Qrm {
public:
  struct Config {
    calibration::AutoCalibrationController::Config controller;
    calibration::GhzBenchmark::Params benchmark;
    /// Compile + queue + transfer overhead added to every execution.
    Seconds job_overhead = seconds(2.0);
    /// Fixed overhead of a benchmark run (control-software setup).
    Seconds benchmark_overhead = minutes(2.0);
    /// A scheduler-controlled policy may defer calibration at most this
    /// factor past max_calibration_age before forcing a slot.
    double max_defer_factor = 1.5;
    /// How user jobs are executed on the device model; multi-month
    /// simulations use kEstimateOnly.
    device::ExecutionMode execution_mode =
        device::ExecutionMode::kGlobalDepolarizing;
    /// Retry budget + backoff for transient execution faults.
    RetryPolicy retry;
    /// Bounded-queue admission control and overload shedding.
    AdmissionPolicy admission;
  };

  /// Throws PermanentError when `config` is invalid (zero capacities,
  /// non-positive rates, degenerate retry policy, ...). With `metrics`
  /// null the QRM owns a private registry (reachable via
  /// metrics_registry()); passing a shared registry lets one snapshot
  /// cover the whole stack.
  Qrm(device::DeviceModel& device, Config config, Rng& rng,
      EventLog* log = nullptr, obs::MetricsRegistry* metrics = nullptr);

  Seconds now() const { return now_; }
  qdmi::DeviceStatus status() const { return status_; }
  bool queue_empty() const { return queue_.empty(); }
  std::size_t queue_length() const { return queue_.size(); }
  /// Jobs waiting out their retry backoff (not yet requeued).
  std::size_t retry_backlog() const { return retry_queue_.size(); }

  /// Submits a compiled job at the current time; returns its id. With
  /// accounting attached, metered jobs are admission-checked against the
  /// project budget (StateError when it cannot afford the estimate).
  /// Admission control may refuse the job: the returned id then points at a
  /// record already in a terminal kRejected* state (check `record(id)`), so
  /// every submission remains auditable — refusals are never exceptions and
  /// never silent.
  int submit(QuantumJob job);

  /// Admits a whole batch in order (the sharded-admission drain path) and
  /// returns one id per job: submit() in a loop.
  std::vector<int> submit_batch(std::vector<QuantumJob> jobs);

  /// Estimated time until a job submitted now would start: the remainder
  /// of the active phase plus the execution estimate of everything queued
  /// *and* everything waiting out a retry backoff (a device with a deep
  /// retry backlog is not idle — the backlog re-enters at the queue head).
  /// O(1): maintained incrementally from the per-job cached estimates.
  Seconds estimated_wait() const;

  /// Pending (queued + retry-backlog) jobs a project currently holds —
  /// the occupancy the fair-share cap compares against.
  std::size_t tenant_pending(const std::string& project) const;

  /// What submit() would decide for a job of `width` touched qubits at
  /// `priority`, without consuming a token or creating a record. Used by
  /// fleet-level placement to find an eligible device before committing.
  enum class AdmissionProbe {
    kAdmissible,
    kOffline,      ///< device out of service
    kTooWide,      ///< exceeds the largest healthy component
    kQueueFull,    ///< hard capacity cap (also refuses migrations)
    kBrownout,     ///< low-priority class suspended
    kRateLimited,  ///< token bucket dry
  };
  AdmissionProbe probe_admission(int width, JobPriority priority) const;

  /// True while brownout shedding is active.
  bool brownout() const { return brownout_; }

  /// Conservation audit (see JobConservation). O(1): it reads the per-state
  /// ledger, so it is cheap enough to sample every telemetry step.
  JobConservation conservation() const;

  /// Cancels a job that has not started (queued or awaiting retry).
  /// Returns false when the job is running or already terminal.
  bool cancel(int id, const std::string& reason = "cancelled by user");

  /// Attaches a usage ledger (§4: "Resource Usage; and Budgeting"). The
  /// ledger must outlive the QRM; pass nullptr to detach.
  void set_accounting(Accounting* accounting) { accounting_ = accounting; }

  /// Attaches a fault injector: execution attempts and calibrations that
  /// fall inside one of its windows fail (and retry per the policy). The
  /// injector must outlive the QRM; pass nullptr to detach.
  void set_fault_injector(fault::FaultInjector* injector) {
    injector_ = injector;
  }

  /// Attaches the compile service parametric jobs dispatch through (must
  /// outlive the QRM; nullptr detaches — parametric submissions then throw
  /// at submit).
  void set_compile_service(mqss::QpuService* service) {
    compile_service_ = service;
  }
  mqss::QpuService* compile_service() const { return compile_service_; }

  /// Attaches a tracer: every submission then produces one connected span
  /// tree (submit -> admission -> queue wait -> attempts -> terminal state),
  /// timestamped on the QRM's simulated clock. The tracer must outlive the
  /// QRM; pass nullptr to disable (the default — disabled tracing costs one
  /// pointer test per site).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches (or replaces) the write-ahead journal sink (see journal.hpp):
  /// every lifecycle transition is then journaled, tagged with
  /// `device_tag` (Fleet::add_device passes the device's fleet index). The
  /// sink must outlive the QRM; nullptr, the default, disables journaling
  /// at one pointer test per emission site.
  void set_journal(JournalSink* sink, int device_tag = -1) {
    journal_ = sink;
    journal_tag_ = device_tag;
  }
  JournalSink* journal() const { return journal_; }

  /// Captures the durable image of the current state (see QrmDurableState).
  /// Safe at any time; between phases it is exactly what a checkpoint
  /// stores.
  QrmDurableState capture_durable() const;

  /// Reconstructs state from a recovered image onto a freshly constructed
  /// QRM (same device/config/rng wiring; StateError if jobs were already
  /// submitted). In-flight attempts are requeued at the head per the
  /// set_offline semantics (attempt refunded, interruption recorded),
  /// terminal records are restored verbatim and never re-executed, DLQ
  /// trace contexts are backfilled like the drain/replay path, and — when
  /// a tracer is attached (attach it *before* restoring) — every
  /// non-terminal job gets a fresh root span parented at its pre-crash
  /// context so the trace survives the crash.
  RestoreSummary restore_durable(const QrmDurableState& state);

  /// The live metrics registry (owned or shared, see the constructor).
  obs::MetricsRegistry& metrics_registry() { return *registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// Advances simulated time, executing jobs / benchmarks / calibrations
  /// and applying calibration drift along the way.
  void advance_to(Seconds t);

  /// Runs until the queue (including retry backlog) drains and the device
  /// is idle.
  void drain();

  /// Marks the QPU unavailable (outage); queued jobs are retained. An
  /// in-flight job returns to the queue head with an interruption recorded
  /// (no retry attempt is charged — the outage is not the job's fault); an
  /// in-flight forced/recovery calibration is re-armed so it runs when the
  /// QPU returns. While offline, time advances but nothing executes.
  void set_offline(const std::string& reason);
  /// Returns the QPU to service.
  void set_online();
  bool online() const { return online_; }

  /// Enqueues a forced calibration (used by recovery procedures).
  void request_calibration(calibration::CalibrationKind kind);

  /// Gate consulted before a *controller-driven* calibration starts (fleet
  /// slot coordination: at most K devices calibrate concurrently). A false
  /// return defers the slot to a later scheduler pass. Forced calibrations
  /// (recovery) bypass the gate — an outage already serialized the device.
  void set_calibration_gate(std::function<bool()> gate) {
    calibration_gate_ = std::move(gate);
  }

  /// Ids currently queued, in scheduling order (excludes the retry backlog).
  const std::vector<int>& queued_jobs() const { return queue_; }
  /// Ids waiting out their retry backoff.
  const std::vector<int>& retry_jobs() const { return retry_queue_; }
  /// Stored payload of a queued/retrying job (NotFoundError otherwise).
  /// Fleet placement inspects the shape here before deciding a migration
  /// target — extraction is destructive, peeking is not.
  const QuantumJob& pending_job(int id) const;

  /// A job removed from this QRM for re-placement on a peer device. The
  /// payload keeps the client's trace context and carries migrated_in so
  /// the destination bypasses rate control (see QuantumJob::migrated_in).
  struct MigratedJob {
    int id = 0;  ///< id the job had on this QRM
    QuantumJob job;
  };

  /// Extracts one queued or retry-backlog job for migration: the local
  /// record becomes terminal kMigrated, spans close cleanly (migration is
  /// not a failure), and the payload is returned for re-submission
  /// elsewhere. Returns nullopt when the job is running or terminal.
  std::optional<MigratedJob> extract_job(int id, const std::string& reason);

  /// Extracts every queued job (in queue order) then the retry backlog —
  /// the bulk path used when a device goes offline or is masked mid-queue.
  std::vector<MigratedJob> extract_pending(const std::string& reason);

  /// Sends a queued or retry-backlog job straight to the dead-letter queue
  /// (used when no peer can host a migration). Returns false when the job
  /// is running or already terminal.
  bool dead_letter_job(int id, const std::string& reason);

  /// Hands out (and clears) the dead-letter queue for replay after
  /// recovery. Each returned record carries the original payload; records
  /// whose jobs had no client trace context get the failed run's root
  /// context patched in, so re-submitting joins the original trace.
  std::vector<DeadLetterRecord> drain_dead_letters();

  const QuantumJobRecord& record(int id) const;
  const std::vector<DeadLetterRecord>& dead_letters() const {
    return dead_letters_;
  }

  const calibration::AutoCalibrationController& controller() const {
    return controller_;
  }

private:
  enum class Phase { kIdle, kJob, kBenchmark, kCalibration };

  /// One per-priority token bucket, refilled lazily in simulated time.
  struct TokenBucket {
    double rate_per_hour = 0.0;
    double burst = 1.0;
    double tokens = 0.0;
    Seconds last_refill = 0.0;

    bool try_take(Seconds now);
  };

  /// Per-project admission state: fair-share occupancy, the tenant rate
  /// bucket, and the bound qrm.tenant.<project>.* counters.
  struct TenantState {
    TokenBucket bucket;
    std::size_t pending = 0;  ///< jobs in the queue or retry backlog
    obs::Counter* submitted = nullptr;
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
  };

  /// Per-job open span handles (all kNoSpan without a tracer). The root
  /// handle lives here until the job reaches a terminal state; the stage
  /// handles track whichever lifecycle stage is currently open.
  struct JobSpans {
    obs::SpanHandle root = obs::kNoSpan;
    obs::SpanHandle admission = obs::kNoSpan;
    obs::SpanHandle queue = obs::kNoSpan;    ///< current queue-wait span
    obs::SpanHandle attempt = obs::kNoSpan;  ///< current execution attempt
    obs::SpanHandle execute = obs::kNoSpan;  ///< device-execute child
    obs::SpanHandle backoff = obs::kNoSpan;  ///< retry backoff span
    bool held = false;            ///< inside a degraded-hold stretch
    std::size_t held_scans = 0;   ///< scheduler passes that skipped the job
  };

  static constexpr std::size_t kStates =
      static_cast<std::size_t>(QuantumJobState::kMigrated) + 1;

  /// The only code that changes a job's state. Stamps the record (end_time
  /// on terminal states, next_retry_at cleared on leaving kRetrying,
  /// failure_reason when `reason` is given), moves the ledger, then
  /// journals, counts, closes spans and logs the edge as the edge table in
  /// qrm.cpp says. Callers set their own record fields and place the job in
  /// its queue first.
  void transition(int id, QuantumJobState to, std::string_view reason = {});
  /// Takes a queued or retry-backlog job out of its queue; false when the
  /// job is unknown, running or terminal.
  bool leave_pending(int id);
  void finish_phase(Rng& rng);
  void begin_next_work();
  void apply_drift_until(Seconds t);
  void promote_due_retries();
  void fail_active_job();
  /// Bookkeeping for a job entering / leaving the queue or retry backlog:
  /// keeps the O(1) wait sums and per-tenant occupancy in sync. Must be
  /// called while the job's payload is still in pending_jobs_.
  void track_enqueue(int id, bool retry);
  void track_dequeue(int id, bool retry);
  TenantState* tenant_state(const std::string& project);
  void push_dead_letter(const QuantumJobRecord& record, QuantumJob job);
  void update_brownout();
  void shed_low_priority();
  TokenBucket& bucket(JobPriority priority);
  void bind_metrics();
  void open_queue_span(int id, const char* why);
  void note_queue_gauge();
  /// Stamps device tag + simulated time and forwards to the journal sink
  /// (no-op without one).
  void emit(JobEvent event);

  device::DeviceModel* device_;
  Config config_;
  Rng* rng_;
  EventLog* log_;

  Seconds now_ = 0.0;
  Seconds drifted_until_ = 0.0;
  bool online_ = true;
  qdmi::DeviceStatus status_ = qdmi::DeviceStatus::kIdle;

  Phase phase_ = Phase::kIdle;
  Seconds phase_start_ = 0.0;
  Seconds phase_end_ = 0.0;
  int active_job_ = -1;
  bool active_job_faulted_ = false;
  std::optional<calibration::CalibrationKind> active_calibration_;
  std::optional<calibration::CalibrationKind> forced_calibration_;

  Accounting* accounting_ = nullptr;
  fault::FaultInjector* injector_ = nullptr;
  mqss::QpuService* compile_service_ = nullptr;
  /// Compiled-program slot reused across parametric executions: same
  /// circuit shape + unchanged noise state = angle rebind instead of a full
  /// per-job device compilation.
  device::PreparedProgram prepared_;
  bool brownout_ = false;
  std::function<bool()> calibration_gate_;
  TokenBucket buckets_[3];  ///< indexed by JobPriority
  std::map<std::string, TenantState> tenants_;
  std::size_t tenant_series_ = 0;  ///< dedicated metric series handed out
  /// Incremental work sums behind the O(1) estimated_wait(): cached
  /// per-job costs of everything queued / awaiting retry.
  Seconds queued_work_ = 0.0;
  Seconds retry_work_ = 0.0;
  int next_id_ = 1;
  std::vector<int> queue_;
  std::vector<int> retry_queue_;  ///< ids waiting out next_retry_at
  std::map<int, QuantumJobRecord> records_;
  /// Records per state, indexed by QuantumJobState: the conservation ledger.
  std::array<std::size_t, kStates> ledger_{};
  std::map<int, QuantumJob> pending_jobs_;
  std::vector<DeadLetterRecord> dead_letters_;

  calibration::AutoCalibrationController controller_;
  calibration::GhzBenchmark benchmark_;
  calibration::CalibrationEngine engine_;

  obs::Tracer* tracer_ = nullptr;
  JournalSink* journal_ = nullptr;
  int journal_tag_ = -1;
  std::map<int, JobSpans> job_spans_;
  obs::SpanHandle phase_span_ = obs::kNoSpan;  ///< calibration / benchmark

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  // Bound once at construction (registry references are stable), so hot
  // paths increment through pointers instead of name lookups.
  obs::Counter* m_submitted_ = nullptr;
  /// Bumped when a job enters a state, indexed by QuantumJobState (null
  /// for kQueued and kRunning).
  std::array<obs::Counter*, kStates> m_entered_{};
  obs::Counter* m_execution_faults_ = nullptr;
  obs::Counter* m_calibrations_failed_ = nullptr;
  obs::Counter* m_degraded_holds_ = nullptr;
  obs::Counter* m_dead_letters_dropped_ = nullptr;
  obs::Counter* m_migrated_in_ = nullptr;
  obs::Counter* m_dead_letters_drained_ = nullptr;
  obs::Counter* m_total_shots_ = nullptr;
  obs::Counter* m_good_shots_ = nullptr;
  obs::Counter* m_busy_time_ = nullptr;
  obs::Counter* m_calibration_time_ = nullptr;
  obs::Counter* m_benchmark_time_ = nullptr;
  obs::Gauge* m_queue_length_ = nullptr;
  obs::Gauge* m_brownout_ = nullptr;
  obs::Histogram* m_queue_wait_ = nullptr;
  obs::Histogram* m_execute_ = nullptr;
  obs::Histogram* m_shots_per_s_ = nullptr;
  obs::Histogram* m_overhead_ = nullptr;
};

/// Distinct qubits a compiled circuit actually acts on (gate operands and
/// measured qubits) — the width that must fit a healthy component,
/// independent of the full-device register the circuit is expressed over.
int circuit_width(const circuit::Circuit& circuit);

}  // namespace hpcqc::sched
