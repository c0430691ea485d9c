#include "hpcqc/sched/durable.hpp"

#include <algorithm>

#include "hpcqc/common/error.hpp"

namespace hpcqc::sched {

QrmDurableState Qrm::capture_durable() const {
  QrmDurableState state;
  state.now = now_;
  state.next_id = next_id_;
  state.online = online_;
  state.queue = queue_;
  state.retry_queue = retry_queue_;
  state.records = records_;
  state.pending = pending_jobs_;
  state.dead_letters = dead_letters_;
  for (int p = 0; p < 3; ++p) {
    state.class_buckets[p].tokens = buckets_[p].tokens;
    state.class_buckets[p].last_refill = buckets_[p].last_refill;
  }
  for (const auto& [project, tenant] : tenants_)
    state.tenants.emplace(
        project,
        TokenBucketState{tenant.bucket.tokens, tenant.bucket.last_refill});
  for (const auto& [id, job] : pending_jobs_)
    if (job.parametric != nullptr)
      state.structure_manifest.push_back(job.parametric->structural_hash());
  std::sort(state.structure_manifest.begin(), state.structure_manifest.end());
  state.structure_manifest.erase(std::unique(state.structure_manifest.begin(),
                                             state.structure_manifest.end()),
                                 state.structure_manifest.end());
  return state;
}

RestoreSummary Qrm::restore_durable(const QrmDurableState& state) {
  ensure_state(records_.empty() && pending_jobs_.empty() && next_id_ == 1,
               "Qrm::restore_durable: restore requires a fresh QRM");
  RestoreSummary summary;
  now_ = state.now;
  // The recovered device model starts fresh at `now`; drift resumes from
  // here instead of replaying the whole pre-crash span in one step.
  drifted_until_ = state.now;
  online_ = state.online;
  status_ = online_ ? qdmi::DeviceStatus::kIdle : qdmi::DeviceStatus::kOffline;
  next_id_ = state.next_id;
  records_ = state.records;
  pending_jobs_ = state.pending;
  dead_letters_ = state.dead_letters;
  for (int p = 0; p < 3; ++p) {
    if (!state.class_buckets[p].observed()) continue;
    buckets_[p].tokens = state.class_buckets[p].tokens;
    buckets_[p].last_refill = state.class_buckets[p].last_refill;
  }
  for (const auto& [project, bucket_state] : state.tenants) {
    TenantState* tenant = tenant_state(project);
    tenant->bucket.tokens = bucket_state.tokens;
    tenant->bucket.last_refill = bucket_state.last_refill;
  }

  // Trace backfill, mirroring the DLQ drain/replay path: a payload the
  // client submitted without a context inherits the failed run's root, so a
  // post-recovery replay joins the original trace.
  for (DeadLetterRecord& letter : dead_letters_) {
    if (!letter.job.trace.valid() && letter.trace.valid()) {
      letter.job.trace = letter.trace;
      summary.backfilled_traces += 1;
    }
  }
  for (auto& [id, job] : pending_jobs_) {
    const auto it = records_.find(id);
    if (it == records_.end()) continue;
    if (!job.trace.valid() && it->second.trace.valid()) {
      job.trace = it->second.trace;
      summary.backfilled_traces += 1;
    }
  }

  queue_ = state.queue;
  retry_queue_ = state.retry_queue;
  for (const int id : queue_) track_enqueue(id, /*retry=*/false);
  for (const int id : retry_queue_) track_enqueue(id, /*retry=*/true);

  // In-flight attempts: the crash interrupted them exactly like an outage
  // would have, so they re-enter at the queue head per the pinned
  // set_offline semantics — no retry attempt charged, interruption noted.
  for (auto& [id, record] : records_) {
    if (record.state != QuantumJobState::kRunning) continue;
    record.state = QuantumJobState::kQueued;
    record.start_time = -1.0;
    record.end_time = -1.0;
    if (record.attempts > 0) record.attempts -= 1;
    record.interruptions += 1;
    record.failure_reason =
        "interrupted by control-plane crash; requeued at recovery";
    queue_.insert(queue_.begin(), id);
    track_enqueue(id, /*retry=*/false);
    summary.requeued_in_flight += 1;
  }

  // The ledger is tallied once from the restored records. Terminal counters
  // are audit state and restart from it; throughput counters (shots, busy
  // time, retries) restart at zero — they are observability, not audit,
  // and the report layer treats them as per-incarnation.
  for (const auto& [id, record] : records_)
    ledger_[static_cast<std::size_t>(record.state)] += 1;
  m_submitted_->inc(static_cast<double>(records_.size()));
  for (std::size_t s = 0; s < kStates; ++s)
    if (is_terminal(static_cast<QuantumJobState>(s)))
      m_entered_[s]->inc(static_cast<double>(ledger_[s]));
  note_queue_gauge();

  // Fresh spans for surviving work (attach the tracer *before* restoring):
  // each non-terminal job reopens a root parented at its pre-crash context,
  // so the recovered run's spans join the original trace.
  if (tracer_ != nullptr) {
    for (auto& [id, record] : records_) {
      if (is_terminal(record.state)) continue;
      JobSpans spans;
      spans.root = tracer_->begin_span("job:" + record.name, now_,
                                       record.trace);
      tracer_->set_attribute(spans.root, "job_id", std::to_string(id));
      tracer_->set_attribute(spans.root, "recovered", "true");
      record.trace = tracer_->context(spans.root);
      job_spans_.emplace(id, spans);
      if (record.state == QuantumJobState::kQueued) {
        open_queue_span(id, "restored after recovery");
      } else if (record.state == QuantumJobState::kRetrying) {
        JobSpans& js = job_spans_.at(id);
        js.backoff = tracer_->begin_span("retry-backoff", now_,
                                         tracer_->context(js.root));
        tracer_->set_attribute(js.backoff, "recovered", "true");
      }
    }
  }

  summary.restored_jobs = records_.size();
  if (log_)
    log_->info(now_, "qrm",
               "restored " + std::to_string(summary.restored_jobs) +
                   " job records (" +
                   std::to_string(summary.requeued_in_flight) +
                   " in-flight requeued)");
  return summary;
}

FleetDurableState Fleet::capture_durable() const {
  FleetDurableState state;
  state.now = now_;
  state.next_id = next_id_;
  state.records = records_;
  state.devices.reserve(slots_.size());
  for (const auto& s : slots_)
    state.devices.push_back(s->qrm->capture_durable());
  return state;
}

RestoreSummary Fleet::restore_durable(const FleetDurableState& state) {
  ensure_state(records_.empty(),
               "Fleet::restore_durable: restore requires a fresh fleet");
  ensure_state(state.devices.size() == slots_.size(),
               "Fleet::restore_durable: device roster mismatch (image has " +
                   std::to_string(state.devices.size()) + ", fleet has " +
                   std::to_string(slots_.size()) + ")");
  now_ = state.now;
  next_id_ = state.next_id;
  records_ = state.records;

  RestoreSummary total;
  for (std::size_t d = 0; d < slots_.size(); ++d) {
    Slot& s = *slots_[d];
    const RestoreSummary r = s.qrm->restore_durable(state.devices[d]);
    total.restored_jobs += r.restored_jobs;
    total.requeued_in_flight += r.requeued_in_flight;
    total.backfilled_traces += r.backfilled_traces;
    s.clock->advance_to(std::max(state.devices[d].now, now_));
    s.qdmi->set_status(s.qrm->status());
  }

  // local_to_fleet is derived state: each fleet record's *current*
  // (device, local id) pair is exactly the mapping (older hops were erased
  // when the job migrated away).
  for (const auto& [id, record] : records_) {
    if (record.device < 0) continue;
    slot(record.device).local_to_fleet.emplace(record.local_id, id);
  }

  // Fleet-level roots for surviving jobs, so migration hops after recovery
  // still land under one span tree per submission.
  if (tracer_ != nullptr) {
    for (const auto& [id, record] : records_) {
      if (record.device < 0) continue;
      const QuantumJobState s = this->state(id);
      if (is_terminal(s)) continue;
      const obs::SpanHandle span =
          tracer_->begin_span("fleet-job:" + record.name, now_);
      tracer_->set_attribute(span, "fleet_id", std::to_string(id));
      tracer_->set_attribute(span, "recovered", "true");
      open_spans_.emplace(id, span);
    }
  }

  note_gauges();
  if (log_)
    log_->info(now_, "fleet",
               "restored " + std::to_string(records_.size()) +
                   " fleet records across " + std::to_string(slots_.size()) +
                   " devices");
  return total;
}

}  // namespace hpcqc::sched
