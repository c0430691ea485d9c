#pragma once

#include <map>
#include <optional>
#include <string>

#include "hpcqc/common/sim_clock.hpp"
#include "hpcqc/mqss/service.hpp"

namespace hpcqc::mqss {

/// How a job reaches the QPU (§2.6's "two fundamentally distinct
/// user-interaction modes").
enum class AccessPath {
  kAuto,  ///< detect from the execution environment
  kHpc,   ///< in-HPC accelerator-style, tightly-coupled low-latency path
  kRest,  ///< remote asynchronous REST-queue path
};

const char* to_string(AccessPath path);

/// Circuit-breaker state of a client's QPU path.
enum class BreakerState {
  kClosed,    ///< QPU path healthy; submissions go to the machine
  kOpen,      ///< too many consecutive failures; all traffic to the emulator
  kHalfOpen,  ///< cooldown elapsed; the next submission probes the QPU once
};

const char* to_string(BreakerState state);

/// Environment detection: inside an HPC allocation when a batch-system
/// job variable (SLURM_JOB_ID / PBS_JOBID) or the explicit override
/// HPCQC_INSIDE_HPC=1 is present.
bool detect_inside_hpc();

/// Handle of a submitted job.
struct JobTicket {
  int id = 0;
  AccessPath path = AccessPath::kHpc;
};

/// Completed-job view returned by Client::wait.
struct ClientResult {
  RunResult run;
  AccessPath path = AccessPath::kHpc;
  Seconds turnaround = 0.0;  ///< submit -> result, in simulated time
  std::size_t polls = 0;     ///< REST poll count (0 on the HPC path)
};

/// Latency model of the REST access path.
struct RestClientParams {
  Seconds request_latency = milliseconds(60.0);  ///< one HTTP round trip
  Seconds queue_delay = seconds(5.0);            ///< shared-queue wait
  Seconds poll_interval = seconds(2.0);
};

/// Client-side resilience: per-submission timeout + retry with exponential
/// backoff over transient failures, and a circuit breaker that degrades to
/// the digital-twin emulator path (results tagged `emulated`) while the
/// QPU is down, instead of hammering a machine that is mid-recovery.
struct ResilienceParams {
  std::size_t max_attempts = 3;  ///< per submission, including the first
  Seconds submit_timeout = seconds(10.0);  ///< burned by each failed attempt
  Seconds initial_backoff = seconds(1.0);
  double backoff_factor = 2.0;
  /// Consecutive underlying failures that open the breaker.
  std::size_t breaker_threshold = 3;
  /// Open-state hold before a half-open probe is allowed.
  Seconds breaker_cooldown = minutes(10.0);
  /// Degrade to run_emulated when attempts are exhausted or the breaker is
  /// open. When false, exhausted submissions rethrow the TransientError.
  bool emulator_fallback = true;
};

/// The MQSS client of Fig. 2: "without requiring any code modifications
/// from the user, the client automatically detects whether a job originates
/// inside or outside an HPC environment and routes it accordingly" — to the
/// HPC backend (synchronous, microsecond-scale overhead) or the REST
/// backend (asynchronous submission, polling, queueing latency).
class Client {
public:
  /// `service` and `clock` must outlive the client. `path` kAuto engages
  /// environment detection at construction.
  Client(QpuService& service, SimClock& clock,
         AccessPath path = AccessPath::kAuto, RestClientParams rest = {},
         ResilienceParams resilience = {});

  /// The path this client resolved to.
  AccessPath resolved_path() const { return path_; }

  /// Submits a frontend circuit. On the HPC path execution is immediate
  /// (the call returns after the tightly-coupled run); on the REST path
  /// the job enters the remote queue and completes asynchronously.
  /// Transient QPU failures are retried with backoff; when the circuit
  /// breaker is open (or attempts run out) the submission transparently
  /// falls back to the emulator and the result is tagged `emulated`.
  JobTicket submit(const circuit::Circuit& circuit, std::size_t shots,
                   std::string name = "job");

  /// Batch submission — the feature the early users asked for in §4
  /// ("users requested features such as batch-job support"). On the REST
  /// path the whole batch travels in one request, so the per-job round-trip
  /// latency is amortized; jobs still execute sequentially on the QPU.
  std::vector<JobTicket> submit_batch(
      const std::vector<circuit::Circuit>& circuits, std::size_t shots,
      std::string name = "batch");

  /// Waits for every ticket, in order.
  std::vector<ClientResult> wait_all(const std::vector<JobTicket>& tickets);

  /// True when the job's result is available at the current clock time.
  bool ready(const JobTicket& ticket) const;

  /// Blocks (advancing the simulated clock through REST polling) until the
  /// job completes, then returns the result.
  ClientResult wait(const JobTicket& ticket);

  /// Breaker state at the current clock time.
  BreakerState breaker_state() const;
  const ResilienceParams& resilience() const { return resilience_; }

  /// Attaches a tracer: each submission becomes a client.submit root span
  /// (timestamped on the client's SimClock) whose context is threaded into
  /// the service, so the whole path shares one trace. nullptr disables.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  /// Counts into `registry`: client.retries (failed attempts),
  /// client.fallbacks (emulated runs), client.breaker_opens and the
  /// client.turnaround_s histogram; also forwards the registry to the
  /// service. nullptr detaches.
  void set_metrics(obs::MetricsRegistry* registry);

private:
  struct PendingJob {
    std::string name;
    Seconds submitted_at = 0.0;
    Seconds ready_at = 0.0;
    RunResult result;
    std::size_t polls = 0;
  };

  RunResult execute_resilient(const circuit::Circuit& circuit,
                              std::size_t shots);
  obs::TraceContext submit_context() const;
  RunResult emulator_fallback(const circuit::Circuit& circuit,
                              std::size_t shots);
  void note_failure();

  QpuService* service_;
  SimClock* clock_;
  AccessPath path_;
  RestClientParams rest_;
  ResilienceParams resilience_;
  int next_id_ = 1;
  std::map<int, PendingJob> jobs_;

  bool breaker_open_ = false;
  Seconds breaker_open_until_ = 0.0;
  std::size_t consecutive_failures_ = 0;

  obs::Tracer* tracer_ = nullptr;
  obs::SpanHandle submit_span_ = obs::kNoSpan;  ///< open during submit()
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_fallbacks_ = nullptr;
  obs::Counter* m_breaker_opens_ = nullptr;
  obs::Histogram* m_turnaround_ = nullptr;
};

}  // namespace hpcqc::mqss
