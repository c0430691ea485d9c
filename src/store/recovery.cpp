#include "hpcqc/store/recovery.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "hpcqc/common/error.hpp"
#include "hpcqc/store/journal.hpp"
#include "hpcqc/store/snapshot.hpp"

namespace hpcqc::store {

namespace {

void erase_id(std::vector<int>& queue, int id) { std::erase(queue, id); }

/// Applies one replayed job event to a per-device image. The switch mirrors
/// the live Qrm mutation next to each emission site: the journal is
/// write-ahead, so "apply the event" and "what the QRM did" are the same
/// transition.
void apply_job_event(sched::QrmDurableState& img, const JobEventRecord& ev) {
  img.now = std::max(img.now, ev.at);
  if (ev.id > 0) img.next_id = std::max(img.next_id, ev.id + 1);
  switch (ev.kind) {
    case sched::JobEvent::Kind::kSubmitted:
      expects(ev.has_record && ev.has_job,
              "recovery: kSubmitted without payload");
      img.records[ev.id] = ev.record;
      img.pending[ev.id] = ev.job;
      break;
    case sched::JobEvent::Kind::kAdmitted:
      img.queue.push_back(ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      img.class_buckets[static_cast<int>(ev.priority)] = {ev.bucket_tokens,
                                                          ev.bucket_refill};
      break;
    case sched::JobEvent::Kind::kRejected:
      if (ev.has_record) img.records[ev.id] = ev.record;
      img.pending.erase(ev.id);
      break;
    case sched::JobEvent::Kind::kDispatched:
      erase_id(img.queue, ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      break;
    case sched::JobEvent::Kind::kCompleted:
      if (ev.has_record) img.records[ev.id] = ev.record;
      img.pending.erase(ev.id);
      break;
    case sched::JobEvent::Kind::kRetrying:
      img.retry_queue.push_back(ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      break;
    case sched::JobEvent::Kind::kRetryRequeued: {
      erase_id(img.retry_queue, ev.id);
      img.queue.insert(img.queue.begin(), ev.id);
      const auto it = img.records.find(ev.id);
      if (it != img.records.end()) {
        it->second.state = sched::QuantumJobState::kQueued;
        it->second.next_retry_at = -1.0;
      }
      break;
    }
    case sched::JobEvent::Kind::kInterrupted:
      img.queue.insert(img.queue.begin(), ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      break;
    case sched::JobEvent::Kind::kCancelled:
    case sched::JobEvent::Kind::kShed:
      erase_id(img.queue, ev.id);
      erase_id(img.retry_queue, ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      img.pending.erase(ev.id);
      break;
    case sched::JobEvent::Kind::kDeadLettered: {
      erase_id(img.queue, ev.id);
      erase_id(img.retry_queue, ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      sched::DeadLetterRecord letter;
      letter.id = ev.id;
      const auto rit = img.records.find(ev.id);
      if (rit != img.records.end()) {
        letter.name = rit->second.name;
        letter.attempts = rit->second.attempts;
        letter.trace = rit->second.trace;
      }
      letter.reason = ev.reason;
      letter.failed_at = ev.at;
      const auto pit = img.pending.find(ev.id);
      if (pit != img.pending.end()) {
        letter.job = std::move(pit->second);
        img.pending.erase(pit);
      }
      // No capacity enforcement here: overflow is its own journaled event
      // (kDlqDropped), so replay reproduces the live DLQ exactly.
      img.dead_letters.push_back(std::move(letter));
      break;
    }
    case sched::JobEvent::Kind::kDlqDropped:
      if (!img.dead_letters.empty())
        img.dead_letters.erase(img.dead_letters.begin());
      break;
    case sched::JobEvent::Kind::kDlqDrained:
      img.dead_letters.clear();
      break;
    case sched::JobEvent::Kind::kMigratedOut:
      erase_id(img.queue, ev.id);
      erase_id(img.retry_queue, ev.id);
      if (ev.has_record) img.records[ev.id] = ev.record;
      img.pending.erase(ev.id);
      break;
    case sched::JobEvent::Kind::kTenantDelta:
      img.tenants[ev.project] = {ev.bucket_tokens, ev.bucket_refill};
      break;
    case sched::JobEvent::Kind::kOffline:
      img.online = false;
      break;
    case sched::JobEvent::Kind::kOnline:
      img.online = true;
      break;
  }
}

void apply_fleet_event(sched::FleetDurableState& img,
                       const FleetEventRecord& ev) {
  img.now = std::max(img.now, ev.at);
  if (ev.id > 0) img.next_id = std::max(img.next_id, ev.id + 1);
  switch (ev.kind) {
    case sched::FleetEvent::Kind::kSubmitted: {
      sched::Fleet::FleetJobRecord record;
      record.id = ev.id;
      record.name = ev.name;
      record.device = ev.device;
      record.local_id = ev.local_id;
      record.submit_time = ev.at;
      record.width = ev.width;
      record.priority = ev.priority;
      if (ev.device < 0) {
        record.refused_state = ev.refused_state;
        record.refusal_reason = ev.reason;
      } else {
        record.hops.emplace_back(ev.device, ev.local_id);
      }
      img.records[ev.id] = std::move(record);
      break;
    }
    case sched::FleetEvent::Kind::kMigrated: {
      const auto it = img.records.find(ev.id);
      if (it == img.records.end()) break;
      it->second.device = ev.device;
      it->second.local_id = ev.local_id;
      it->second.migrations += 1;
      it->second.hops.emplace_back(ev.device, ev.local_id);
      break;
    }
  }
}

/// Records still marked admissible whose admission outcome (queue entry or
/// terminal refusal) was torn off the journal tail have no deterministic
/// continuation: cancel them, counted, rather than guess.
std::size_t scrub(sched::QrmDurableState& img) {
  std::size_t scrubbed = 0;
  for (auto& [id, record] : img.records) {
    const bool orphan_queued =
        record.state == sched::QuantumJobState::kQueued &&
        std::find(img.queue.begin(), img.queue.end(), id) == img.queue.end();
    const bool orphan_retrying =
        record.state == sched::QuantumJobState::kRetrying &&
        std::find(img.retry_queue.begin(), img.retry_queue.end(), id) ==
            img.retry_queue.end();
    if (!orphan_queued && !orphan_retrying) continue;
    record.state = sched::QuantumJobState::kCancelled;
    record.end_time = img.now;
    record.next_retry_at = -1.0;
    record.failure_reason =
        "recovery: admission outcome lost in torn journal tail";
    img.pending.erase(id);
    scrubbed += 1;
  }
  return scrubbed;
}

/// Rebuilds the structure-cache manifest exactly like capture_durable does,
/// so a recovered image round-trips byte-identically through a snapshot.
void rebuild_manifest(sched::QrmDurableState& img) {
  img.structure_manifest.clear();
  for (const auto& [id, job] : img.pending)
    if (job.parametric != nullptr)
      img.structure_manifest.push_back(job.parametric->structural_hash());
  std::sort(img.structure_manifest.begin(), img.structure_manifest.end());
  img.structure_manifest.erase(std::unique(img.structure_manifest.begin(),
                                           img.structure_manifest.end()),
                               img.structure_manifest.end());
}

}  // namespace

Recovery::Recovery(WalBackend& backend, obs::MetricsRegistry* metrics,
                   obs::Tracer* tracer)
    : backend_(&backend), metrics_(metrics), tracer_(tracer) {}

std::vector<WalRecord> Recovery::scan() {
  tail_ = Wal::scan(*backend_);
  stats_ = RecoveryStats{};
  stats_.dropped_bytes = tail_.dropped_bytes;
  stats_.torn_tail = tail_.torn;
  return std::exchange(tail_.records, {});
}

sched::QrmDurableState Recovery::recover_qrm() {
  const std::vector<WalRecord> records = scan();
  sched::QrmDurableState img;
  std::size_t start = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    if (record.type != static_cast<std::uint8_t>(RecordType::kSnapshot))
      continue;
    if (snapshot_scope(record.payload) != SnapshotScope::kQrm) continue;
    img = decode_qrm_snapshot(record.payload);
    stats_.snapshot_lsn = record.lsn;
    stats_.had_snapshot = true;
    start = i + 1;
  }
  for (std::size_t i = start; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    if (record.type == static_cast<std::uint8_t>(RecordType::kJobEvent)) {
      apply_job_event(img, decode_job_event(record.payload));
      stats_.replayed += 1;
    }
  }
  stats_.scrubbed = scrub(img);
  rebuild_manifest(img);
  stats_.recovered_now = img.now;
  return img;
}

sched::FleetDurableState Recovery::recover_fleet(std::size_t min_devices) {
  const std::vector<WalRecord> records = scan();
  sched::FleetDurableState img;
  std::size_t start = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    if (record.type != static_cast<std::uint8_t>(RecordType::kSnapshot))
      continue;
    if (snapshot_scope(record.payload) != SnapshotScope::kFleet) continue;
    img = decode_fleet_snapshot(record.payload);
    stats_.snapshot_lsn = record.lsn;
    stats_.had_snapshot = true;
    start = i + 1;
  }
  for (std::size_t i = start; i < records.size(); ++i) {
    const WalRecord& record = records[i];
    if (record.type == static_cast<std::uint8_t>(RecordType::kJobEvent)) {
      const JobEventRecord ev = decode_job_event(record.payload);
      expects(ev.device >= 0, "recovery: fleet journal event without tag");
      if (static_cast<std::size_t>(ev.device) >= img.devices.size())
        img.devices.resize(static_cast<std::size_t>(ev.device) + 1);
      apply_job_event(img.devices[static_cast<std::size_t>(ev.device)], ev);
      stats_.replayed += 1;
    } else if (record.type ==
               static_cast<std::uint8_t>(RecordType::kFleetEvent)) {
      apply_fleet_event(img, decode_fleet_event(record.payload));
      stats_.replayed += 1;
    }
  }
  if (img.devices.size() < min_devices) img.devices.resize(min_devices);
  for (sched::QrmDurableState& device : img.devices) {
    stats_.scrubbed += scrub(device);
    rebuild_manifest(device);
    img.now = std::max(img.now, device.now);
  }
  stats_.recovered_now = img.now;
  return img;
}

// Both restores trim before the restored plane journals anything: the trim
// empties every segment after the torn one, including the open segment of
// a Wal created before recovery.
RecoveryStats Recovery::restore(sched::Qrm& qrm) {
  const sched::QrmDurableState img = recover_qrm();
  Wal::trim_torn_tail(*backend_, tail_);
  finish(qrm.restore_durable(img));
  return stats_;
}

RecoveryStats Recovery::restore(sched::Fleet& fleet) {
  const sched::FleetDurableState img = recover_fleet(fleet.num_devices());
  Wal::trim_torn_tail(*backend_, tail_);
  finish(fleet.restore_durable(img));
  return stats_;
}

void Recovery::finish(const sched::RestoreSummary& summary) {
  stats_.requeued = summary.requeued_in_flight;
  stats_.backfilled_traces = summary.backfilled_traces;
  if (metrics_ != nullptr) {
    metrics_->counter("store.recovery.replayed")
        .inc(static_cast<double>(stats_.replayed));
    metrics_->counter("store.recovery.requeued")
        .inc(static_cast<double>(stats_.requeued));
    metrics_->counter("store.recovery.dropped")
        .inc(static_cast<double>(stats_.dropped_bytes));
  }
  if (tracer_ != nullptr) {
    // Recovery is a control-plane instant on the simulated clock: the span
    // documents what happened (and anchors the recovered jobs' fresh spans
    // in time), not how long the wall-clock rebuild took.
    const Seconds at = stats_.recovered_now;
    const obs::SpanHandle root = tracer_->begin_span("recovery", at);
    const obs::TraceContext ctx = tracer_->context(root);
    const obs::SpanHandle load = tracer_->begin_span("snapshot-load", at, ctx);
    tracer_->set_attribute(load, "snapshot_lsn",
                           std::to_string(stats_.snapshot_lsn));
    tracer_->set_attribute(load, "had_snapshot",
                           stats_.had_snapshot ? "true" : "false");
    tracer_->end_span(load, at);
    const obs::SpanHandle replay =
        tracer_->begin_span("journal-replay", at, ctx);
    tracer_->set_attribute(replay, "replayed",
                           std::to_string(stats_.replayed));
    tracer_->set_attribute(replay, "requeued",
                           std::to_string(stats_.requeued));
    tracer_->set_attribute(replay, "dropped_bytes",
                           std::to_string(stats_.dropped_bytes));
    tracer_->set_attribute(replay, "scrubbed",
                           std::to_string(stats_.scrubbed));
    tracer_->set_attribute(replay, "torn_tail",
                           stats_.torn_tail ? "true" : "false");
    tracer_->end_span(replay, at);
    tracer_->end_span(root, at);
  }
}

}  // namespace hpcqc::store
