#include "hpcqc/mqss/client.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "hpcqc/common/error.hpp"

namespace hpcqc::mqss {

const char* to_string(AccessPath path) {
  switch (path) {
    case AccessPath::kAuto: return "auto";
    case AccessPath::kHpc: return "hpc";
    case AccessPath::kRest: return "rest";
  }
  return "?";
}

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kOpen: return "open";
    case BreakerState::kHalfOpen: return "half-open";
  }
  return "?";
}

bool detect_inside_hpc() {
  const char* override_flag = std::getenv("HPCQC_INSIDE_HPC");
  if (override_flag != nullptr)
    return std::strcmp(override_flag, "0") != 0;
  return std::getenv("SLURM_JOB_ID") != nullptr ||
         std::getenv("PBS_JOBID") != nullptr;
}

Client::Client(QpuService& service, SimClock& clock, AccessPath path,
               RestClientParams rest, ResilienceParams resilience)
    : service_(&service),
      clock_(&clock),
      path_(path),
      rest_(rest),
      resilience_(resilience) {
  if (path_ == AccessPath::kAuto)
    path_ = detect_inside_hpc() ? AccessPath::kHpc : AccessPath::kRest;
}

void Client::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    m_retries_ = m_fallbacks_ = m_breaker_opens_ = nullptr;
    m_turnaround_ = nullptr;
    service_->set_metrics(nullptr);
    return;
  }
  m_retries_ = &registry->counter("client.retries");
  m_fallbacks_ = &registry->counter("client.fallbacks");
  m_breaker_opens_ = &registry->counter("client.breaker_opens");
  m_turnaround_ = &registry->histogram("client.turnaround_s");
  service_->set_metrics(registry);
}

obs::TraceContext Client::submit_context() const {
  return tracer_ != nullptr && submit_span_ != obs::kNoSpan
             ? tracer_->context(submit_span_)
             : obs::TraceContext{};
}

BreakerState Client::breaker_state() const {
  if (!breaker_open_) return BreakerState::kClosed;
  return clock_->now() >= breaker_open_until_ ? BreakerState::kHalfOpen
                                              : BreakerState::kOpen;
}

void Client::note_failure() {
  if (m_retries_ != nullptr) m_retries_->inc();
  ++consecutive_failures_;
  if (consecutive_failures_ >= resilience_.breaker_threshold &&
      !breaker_open_) {
    breaker_open_ = true;
    if (m_breaker_opens_ != nullptr) m_breaker_opens_->inc();
    if (tracer_ != nullptr && submit_span_ != obs::kNoSpan)
      tracer_->add_event(submit_span_, clock_->now(), "breaker-opened",
                         std::to_string(consecutive_failures_) +
                             " consecutive failures");
  }
  if (breaker_open_)
    breaker_open_until_ = clock_->now() + resilience_.breaker_cooldown;
}

RunResult Client::emulator_fallback(const circuit::Circuit& circuit,
                                    std::size_t shots) {
  if (!resilience_.emulator_fallback)
    throw TransientError(
        "Client: QPU unavailable and emulator fallback disabled",
        ErrorCode::kDeviceUnavailable);
  if (m_fallbacks_ != nullptr) m_fallbacks_->inc();
  if (tracer_ != nullptr && submit_span_ != obs::kNoSpan)
    tracer_->add_event(submit_span_, clock_->now(), "fallback-emulated",
                       "breaker " + std::string(to_string(breaker_state())));
  return service_->run_emulated(circuit, shots, submit_context());
}

RunResult Client::execute_resilient(const circuit::Circuit& circuit,
                                    std::size_t shots) {
  // Open breaker, cooldown not yet over: don't touch the machine at all —
  // it is mid-recovery and the paper's ops story (§3.5) is explicit that
  // recovery is staged and slow. Serve the emulator instead.
  if (breaker_state() == BreakerState::kOpen)
    return emulator_fallback(circuit, shots);

  // Half-open probes get exactly one attempt; a closed breaker spends the
  // full retry budget.
  const bool probing = breaker_state() == BreakerState::kHalfOpen;
  const std::size_t attempts =
      probing ? 1 : std::max<std::size_t>(1, resilience_.max_attempts);
  Seconds backoff = resilience_.initial_backoff;

  for (std::size_t attempt = 0; attempt < attempts; ++attempt) {
    try {
      RunResult result = service_->run(circuit, shots, submit_context());
      consecutive_failures_ = 0;
      breaker_open_ = false;  // a success closes the breaker
      return result;
    } catch (const Error& error) {
      if (!error.transient()) throw;  // permanent: retrying is wasted time
      // The failed attempt burned its submission timeout waiting on a
      // machine that never answered.
      clock_->advance(resilience_.submit_timeout);
      note_failure();
      if (tracer_ != nullptr && submit_span_ != obs::kNoSpan)
        tracer_->add_event(submit_span_, clock_->now(),
                           "attempt-" + std::to_string(attempt + 1) +
                               "-failed",
                           error.what());
      if (breaker_open_) break;  // threshold crossed mid-loop
      if (attempt + 1 < attempts) {
        clock_->advance(backoff);
        backoff *= resilience_.backoff_factor;
      }
    }
  }
  return emulator_fallback(circuit, shots);
}

JobTicket Client::submit(const circuit::Circuit& circuit, std::size_t shots,
                         std::string name) {
  const int id = next_id_++;
  PendingJob job;
  job.name = std::move(name);
  job.submitted_at = clock_->now();

  if (tracer_ != nullptr) {
    submit_span_ =
        tracer_->begin_span("client.submit:" + job.name, clock_->now());
    tracer_->set_attribute(submit_span_, "path", to_string(path_));
    tracer_->set_attribute(submit_span_, "shots", std::to_string(shots));
  }

  if (path_ == AccessPath::kHpc) {
    // Tightly-coupled path: the run happens synchronously inside the
    // allocation; only the execution time itself elapses.
    job.result = execute_resilient(circuit, shots);
    clock_->advance(job.result.qpu_time);
    job.ready_at = clock_->now();
  } else {
    // REST path: the request travels out, waits in the shared remote queue,
    // executes, and the result becomes available for download.
    job.result = execute_resilient(circuit, shots);
    job.ready_at = clock_->now() + rest_.request_latency + rest_.queue_delay +
                   job.result.qpu_time;
  }
  if (tracer_ != nullptr && submit_span_ != obs::kNoSpan) {
    if (job.result.emulated)
      tracer_->set_attribute(submit_span_, "emulated", "true");
    tracer_->end_span(submit_span_, clock_->now());
    submit_span_ = obs::kNoSpan;
  }
  if (m_turnaround_ != nullptr)
    m_turnaround_->observe(clock_->now() - job.submitted_at);
  jobs_.emplace(id, std::move(job));
  return {id, path_};
}

std::vector<JobTicket> Client::submit_batch(
    const std::vector<circuit::Circuit>& circuits, std::size_t shots,
    std::string name) {
  expects(!circuits.empty(), "Client::submit_batch: empty batch");
  std::vector<JobTicket> tickets;
  tickets.reserve(circuits.size());

  if (path_ == AccessPath::kHpc) {
    for (std::size_t i = 0; i < circuits.size(); ++i)
      tickets.push_back(
          submit(circuits[i], shots, name + "-" + std::to_string(i)));
    return tickets;
  }

  // REST: one request carries the whole batch; jobs run back to back on
  // the shared QPU, so completion times accumulate.
  Seconds ready_at = clock_->now() + rest_.request_latency + rest_.queue_delay;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    const int id = next_id_++;
    PendingJob job;
    job.name = name + "-" + std::to_string(i);
    job.submitted_at = clock_->now();
    job.result = execute_resilient(circuits[i], shots);
    ready_at = std::max(ready_at, clock_->now()) + job.result.qpu_time;
    job.ready_at = ready_at;
    jobs_.emplace(id, std::move(job));
    tickets.push_back({id, path_});
  }
  return tickets;
}

std::vector<ClientResult> Client::wait_all(
    const std::vector<JobTicket>& tickets) {
  std::vector<ClientResult> results;
  results.reserve(tickets.size());
  for (const auto& ticket : tickets) results.push_back(wait(ticket));
  return results;
}

bool Client::ready(const JobTicket& ticket) const {
  const auto it = jobs_.find(ticket.id);
  if (it == jobs_.end())
    throw NotFoundError("Client: unknown job id " + std::to_string(ticket.id));
  return clock_->now() >= it->second.ready_at;
}

ClientResult Client::wait(const JobTicket& ticket) {
  const auto it = jobs_.find(ticket.id);
  if (it == jobs_.end())
    throw NotFoundError("Client: unknown job id " + std::to_string(ticket.id));
  PendingJob& job = it->second;

  if (path_ == AccessPath::kRest) {
    // Poll the queue until the result materializes, then download it.
    while (clock_->now() < job.ready_at) {
      clock_->advance(std::min(rest_.poll_interval,
                               job.ready_at - clock_->now()));
      clock_->advance(rest_.request_latency);
      ++job.polls;
    }
    clock_->advance(rest_.request_latency);  // result download
  }

  ClientResult result;
  result.run = job.result;
  result.path = path_;
  result.turnaround = clock_->now() - job.submitted_at;
  result.polls = job.polls;
  return result;
}

}  // namespace hpcqc::mqss
