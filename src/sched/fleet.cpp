#include "hpcqc/sched/fleet.hpp"

#include <algorithm>
#include <limits>

#include "hpcqc/common/error.hpp"

namespace hpcqc::sched {

namespace {

void validate_fleet_config(const Fleet::Config& config) {
  const auto check = [](bool ok, const std::string& what) {
    if (!ok)
      throw PermanentError("Fleet::Config: " + what, ErrorCode::kPrecondition);
  };
  check(config.max_concurrent_calibrations >= 1,
        "max_concurrent_calibrations must be >= 1");
  check(config.fidelity_weight >= 0.0, "fidelity_weight cannot be negative");
  check(config.wait_weight >= 0.0, "wait_weight cannot be negative");
  check(config.fidelity_weight > 0.0 || config.wait_weight > 0.0,
        "at least one placement weight must be positive");
  check(config.coordination_step > 0.0, "coordination_step must be positive");
}

}  // namespace

Fleet::Fleet(Config config, Rng& rng, EventLog* log,
             obs::MetricsRegistry* metrics)
    : config_(std::move(config)), rng_(&rng), log_(log) {
  validate_fleet_config(config_);
  if (metrics == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = metrics;
  }
  m_submitted_ = &registry_->counter("fleet.jobs_submitted");
  m_rejected_ = &registry_->counter("fleet.jobs_rejected");
  m_migrations_ = &registry_->counter("fleet.migrations");
  m_migration_dead_letters_ =
      &registry_->counter("fleet.migration_dead_letters");
  m_devices_online_ = &registry_->gauge("fleet.devices_online");
  m_devices_calibrating_ = &registry_->gauge("fleet.devices_calibrating");
}

void Fleet::emit(FleetEvent event) {
  if (journal_ == nullptr) return;
  event.at = now_;
  journal_->on_fleet_event(event);
}

void Fleet::set_journal(JournalSink* sink) {
  journal_ = sink;
  for (std::size_t d = 0; d < slots_.size(); ++d)
    slots_[d]->qrm->set_journal(sink, static_cast<int>(d));
}

Fleet::~Fleet() = default;

std::size_t Fleet::effective_calibration_slots() const {
  // Never let maintenance drain the whole fleet: with two or more devices,
  // at least one always keeps serving.
  if (slots_.size() <= 1) return config_.max_concurrent_calibrations;
  return std::min(config_.max_concurrent_calibrations, slots_.size() - 1);
}

int Fleet::add_device(std::unique_ptr<device::DeviceModel> model,
                      std::string name) {
  expects(model != nullptr, "Fleet::add_device: null device model");
  const int index = static_cast<int>(slots_.size());
  auto s = std::make_unique<Slot>();
  s->name = name.empty() ? "qpu" + std::to_string(index) : std::move(name);
  s->model = std::move(model);
  s->clock = std::make_unique<SimClock>(now_);
  s->qdmi = std::make_unique<qdmi::ModelBackedDevice>(*s->model, *s->clock);
  s->service =
      std::make_unique<mqss::QpuService>(*s->model, *s->qdmi, *rng_);
  s->service->set_device_identity(s->name);
  // The per-device QRM owns a private registry so its qrm.* series stay
  // per-device; the fleet registry carries the fleet.* aggregates.
  s->qrm = std::make_unique<Qrm>(*s->model, config_.qrm, *rng_, log_);
  // Every device journals into the shared fleet sink, tagged by its index.
  s->qrm->set_journal(journal_, index);
  s->qrm->set_compile_service(s->service.get());
  s->service->set_metrics(&s->qrm->metrics_registry());
  if (tracer_ != nullptr) {
    s->qrm->set_tracer(tracer_);
    s->service->set_tracer(tracer_);
  }
  // Calibration-slot gate: a controller-driven slot opens only while fewer
  // than K peers are calibrating. Deterministic — devices advance in index
  // order, so the gate reads a well-defined fleet state.
  Qrm* self = s->qrm.get();
  s->qrm->set_calibration_gate([this, self]() {
    std::size_t calibrating = 0;
    for (const auto& peer : slots_)
      if (peer->qrm.get() != self &&
          peer->qrm->status() == qdmi::DeviceStatus::kCalibrating)
        calibrating += 1;
    return calibrating < effective_calibration_slots();
  });
  s->m_migrations_in =
      &registry_->counter("fleet." + s->name + ".migrations_in");
  s->m_migrations_out =
      &registry_->counter("fleet." + s->name + ".migrations_out");
  slots_.push_back(std::move(s));
  note_gauges();
  if (log_)
    log_->info(now_, "fleet",
               "device '" + slots_.back()->name + "' joined (" +
                   std::to_string(slots_.back()->model->num_qubits()) +
                   " qubits)");
  return index;
}

Fleet::Slot& Fleet::slot(int device) {
  expects(device >= 0 && static_cast<std::size_t>(device) < slots_.size(),
          "Fleet: device index out of range");
  return *slots_[static_cast<std::size_t>(device)];
}

const Fleet::Slot& Fleet::slot(int device) const {
  expects(device >= 0 && static_cast<std::size_t>(device) < slots_.size(),
          "Fleet: device index out of range");
  return *slots_[static_cast<std::size_t>(device)];
}

const std::string& Fleet::device_name(int device) const {
  return slot(device).name;
}
Qrm& Fleet::qrm(int device) { return *slot(device).qrm; }
const Qrm& Fleet::qrm(int device) const { return *slot(device).qrm; }
device::DeviceModel& Fleet::device_model(int device) {
  return *slot(device).model;
}
mqss::QpuService& Fleet::service(int device) { return *slot(device).service; }

std::size_t Fleet::devices_online() const {
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s->qrm->online()) n += 1;
  return n;
}

std::size_t Fleet::devices_calibrating() const {
  std::size_t n = 0;
  for (const auto& s : slots_)
    if (s->qrm->status() == qdmi::DeviceStatus::kCalibrating) n += 1;
  return n;
}

void Fleet::note_gauges() {
  m_devices_online_->set(static_cast<double>(devices_online()));
  m_devices_calibrating_->set(static_cast<double>(devices_calibrating()));
}

bool Fleet::register_fits(const Slot& s, const QuantumJob& job) const {
  // A parametric job re-compiles onto whatever device it lands on; a plain
  // pre-compiled circuit is expressed over one concrete register and can
  // only run where that register matches.
  if (job.parametric != nullptr)
    return job.circuit.num_qubits() <= s.model->num_qubits();
  return job.circuit.num_qubits() == s.model->num_qubits();
}

double Fleet::placement_score(const Slot& s,
                              const circuit::Circuit& circuit) const {
  // Predicted fidelity from the device's live calibration state, scaled by
  // the healthy fraction so a masked device competes at a discount even for
  // circuits that still fit its largest component.
  const double healthy_fraction =
      s.model->num_qubits() == 0
          ? 0.0
          : static_cast<double>(s.model->health().healthy_qubit_count()) /
                static_cast<double>(s.model->num_qubits());
  const double fidelity =
      s.model->estimate_circuit_fidelity(circuit) * healthy_fraction;
  return config_.fidelity_weight * fidelity -
         config_.wait_weight * s.qrm->estimated_wait() / hours(1.0);
}

int Fleet::submit(QuantumJob job) {
  expects(!slots_.empty(), "Fleet::submit: no devices in the fleet");
  // Bind once up front so scoring and width checks see the real gate
  // content of a parametric job (the owning QRM binds again at submit).
  const circuit::Circuit scored = job.parametric != nullptr
                                      ? job.parametric->bind(job.binding)
                                      : job.circuit;
  const int width = circuit_width(scored);

  FleetJobRecord record;
  record.id = next_id_++;
  record.name = job.name;
  record.submit_time = now_;
  record.width = width;
  record.priority = job.priority;
  m_submitted_->inc();

  if (tracer_ != nullptr) {
    // Fleet-level root: the per-device job spans (including every migration
    // hop) attach under it, so one trace shows the job's whole journey.
    const obs::SpanHandle span =
        tracer_->begin_span("fleet-job:" + job.name, now_, job.trace);
    tracer_->set_attribute(span, "fleet_id", std::to_string(record.id));
    tracer_->set_attribute(span, "width", std::to_string(width));
    job.trace = tracer_->context(span);
    open_spans_.emplace(record.id, span);
  }

  // Fleet admission: eligible = the probe says this device would admit the
  // job as-is. The job is refused only when *no* device qualifies.
  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  bool any_capacity_refusal = false;
  bool any_width_refusal = false;
  for (int d = 0; d < static_cast<int>(slots_.size()); ++d) {
    const Slot& s = *slots_[static_cast<std::size_t>(d)];
    if (!register_fits(s, job)) {
      any_width_refusal = true;
      continue;
    }
    switch (s.qrm->probe_admission(width, job.priority)) {
      case Qrm::AdmissionProbe::kAdmissible: break;
      case Qrm::AdmissionProbe::kTooWide:
        any_width_refusal = true;
        continue;
      case Qrm::AdmissionProbe::kQueueFull:
      case Qrm::AdmissionProbe::kBrownout:
      case Qrm::AdmissionProbe::kRateLimited:
        any_capacity_refusal = true;
        continue;
      case Qrm::AdmissionProbe::kOffline: continue;
    }
    const double score = placement_score(s, scored);
    if (score > best_score) {  // strict: lowest index wins ties
      best_score = score;
      best = d;
    }
  }

  if (best < 0) {
    record.refused_state = any_capacity_refusal
                               ? QuantumJobState::kRejectedOverload
                               : any_width_refusal
                                     ? QuantumJobState::kRejectedTooWide
                                     : QuantumJobState::kRejectedOverload;
    record.refusal_reason =
        any_capacity_refusal ? "every serviceable device is at capacity"
        : any_width_refusal  ? "no device can fit the circuit"
                             : "no device in service";
    m_rejected_->inc();
    if (log_)
      log_->warning(now_, "fleet",
                    "job '" + record.name + "' refused fleet-wide: " +
                        record.refusal_reason);
    if (tracer_ != nullptr) {
      const auto it = open_spans_.find(record.id);
      tracer_->add_event(it->second, now_, "refused", record.refusal_reason);
      tracer_->end_span(it->second, now_, obs::SpanStatus::kError);
      open_spans_.erase(it);
    }
    if (journal_ != nullptr) {
      FleetEvent event;
      event.kind = FleetEvent::Kind::kSubmitted;
      event.id = record.id;
      event.name = record.name;
      event.width = record.width;
      event.priority = record.priority;
      event.refused_state = record.refused_state;
      event.reason = record.refusal_reason;
      emit(event);
    }
    const int id = record.id;
    records_.emplace(id, std::move(record));
    return id;
  }

  Slot& chosen = *slots_[static_cast<std::size_t>(best)];
  const int local_id = chosen.qrm->submit(std::move(job));
  record.device = best;
  record.local_id = local_id;
  record.hops.emplace_back(best, local_id);
  chosen.local_to_fleet.emplace(local_id, record.id);
  if (journal_ != nullptr) {
    FleetEvent event;
    event.kind = FleetEvent::Kind::kSubmitted;
    event.id = record.id;
    event.name = record.name;
    event.device = best;
    event.local_id = local_id;
    event.width = record.width;
    event.priority = record.priority;
    emit(event);
  }
  if (log_)
    log_->debug(now_, "fleet",
                "job '" + record.name + "' placed on '" + chosen.name +
                    "' (score " + std::to_string(best_score) + ")");
  const int id = record.id;
  records_.emplace(id, std::move(record));
  return id;
}

int Fleet::best_migration_peer(int from, const QuantumJob& job,
                               int width) const {
  int best = -1;
  double best_score = -std::numeric_limits<double>::infinity();
  for (int d = 0; d < static_cast<int>(slots_.size()); ++d) {
    if (d == from) continue;
    const Slot& s = *slots_[static_cast<std::size_t>(d)];
    if (!register_fits(s, job)) continue;
    switch (s.qrm->probe_admission(width, job.priority)) {
      // Migrations were rate-controlled at their fleet admission, so a dry
      // token bucket or a brownout does not disqualify a peer — only a hard
      // obstacle (offline, too wide, queue at capacity) does.
      case Qrm::AdmissionProbe::kAdmissible:
      case Qrm::AdmissionProbe::kBrownout:
      case Qrm::AdmissionProbe::kRateLimited: break;
      case Qrm::AdmissionProbe::kOffline:
      case Qrm::AdmissionProbe::kTooWide:
      case Qrm::AdmissionProbe::kQueueFull: continue;
    }
    const double score = placement_score(s, job.circuit);
    if (score > best_score) {
      best_score = score;
      best = d;
    }
  }
  return best;
}

void Fleet::migrate_job(int from, int local_id, int to,
                        const std::string& reason) {
  Slot& source = slot(from);
  Slot& target = slot(to);
  auto migrated = source.qrm->extract_job(local_id, reason);
  if (!migrated.has_value()) return;
  const auto map_it = source.local_to_fleet.find(local_id);
  expects(map_it != source.local_to_fleet.end(),
          "Fleet: migrating a job the fleet never placed");
  const int fleet_id = map_it->second;
  source.local_to_fleet.erase(map_it);

  const int new_local = target.qrm->submit(std::move(migrated->job));
  target.local_to_fleet.emplace(new_local, fleet_id);
  FleetJobRecord& record = records_.at(fleet_id);
  record.device = to;
  record.local_id = new_local;
  record.migrations += 1;
  record.hops.emplace_back(to, new_local);
  if (journal_ != nullptr) {
    FleetEvent event;
    event.kind = FleetEvent::Kind::kMigrated;
    event.id = fleet_id;
    event.name = record.name;
    event.device = to;
    event.local_id = new_local;
    event.from = from;
    event.reason = reason;
    emit(event);
  }
  m_migrations_->inc();
  source.m_migrations_out->inc();
  target.m_migrations_in->inc();
  if (log_)
    log_->info(now_, "fleet",
               "job '" + record.name + "' migrated '" + source.name +
                   "' -> '" + target.name + "': " + reason);
}

void Fleet::rebalance() {
  for (int d = 0; d < static_cast<int>(slots_.size()); ++d) {
    Slot& s = *slots_[static_cast<std::size_t>(d)];
    if (!s.qrm->online()) {
      // Offline device: every pending job either moves to a peer or is
      // dead-lettered — nothing waits out an outage of unknown length.
      std::vector<int> pending = s.qrm->queued_jobs();
      const auto& retrying = s.qrm->retry_jobs();
      pending.insert(pending.end(), retrying.begin(), retrying.end());
      for (const int local_id : pending) {
        const QuantumJob& payload = s.qrm->pending_job(local_id);
        const int width = circuit_width(payload.circuit);
        const bool fleet_managed =
            s.local_to_fleet.find(local_id) != s.local_to_fleet.end();
        const int peer =
            fleet_managed ? best_migration_peer(d, payload, width) : -1;
        if (peer >= 0) {
          migrate_job(d, local_id, peer, "device '" + s.name + "' offline");
        } else if (s.qrm->dead_letter_job(
                       local_id,
                       fleet_managed
                           ? "migration failed: no healthy peer can host "
                             "the job (device offline)"
                           : "device offline; job not fleet-managed")) {
          m_migration_dead_letters_->inc();
        }
      }
    } else if (!s.model->health().all_healthy()) {
      // Masked but serving: move only the jobs the mask strands (width no
      // longer fits the largest healthy component) — everything else keeps
      // its place while targeted recalibration repairs the device.
      const int capacity = static_cast<int>(
          s.model->health().largest_component(s.model->topology()).size());
      const std::vector<int> queued = s.qrm->queued_jobs();
      for (const int local_id : queued) {
        if (s.local_to_fleet.find(local_id) == s.local_to_fleet.end())
          continue;  // not fleet-managed: leave it to the device
        const QuantumJob& payload = s.qrm->pending_job(local_id);
        const int width = circuit_width(payload.circuit);
        if (width <= capacity) continue;
        const int peer = best_migration_peer(d, payload, width);
        if (peer >= 0)
          migrate_job(d, local_id, peer,
                      "health mask strands the job on '" + s.name + "'");
        // No peer: stay queued — the device is serving and the mask may
        // clear after targeted recalibration.
      }
    }
  }
  note_gauges();
}

void Fleet::set_device_offline(int device, const std::string& reason) {
  slot(device).qrm->set_offline(reason);
  note_gauges();
}

void Fleet::set_device_online(int device) {
  slot(device).qrm->set_online();
  note_gauges();
}

void Fleet::close_finished_spans() {
  if (tracer_ == nullptr) return;
  for (auto it = open_spans_.begin(); it != open_spans_.end();) {
    const QuantumJobState s = state(it->first);
    if (!is_terminal(s)) {
      ++it;
      continue;
    }
    tracer_->set_attribute(it->second, "terminal_state", to_string(s));
    tracer_->end_span(it->second, now_,
                      s == QuantumJobState::kCompleted
                          ? obs::SpanStatus::kOk
                          : obs::SpanStatus::kError);
    it = open_spans_.erase(it);
  }
}

void Fleet::advance_to(Seconds t) {
  expects(t >= now_, "Fleet::advance_to: time cannot go backwards");
  while (now_ < t) {
    const Seconds slice_end = std::min(t, now_ + config_.coordination_step);
    for (auto& s : slots_) {
      s->clock->advance_to(slice_end);
      s->qrm->advance_to(slice_end);
      s->qdmi->set_status(s->qrm->status());
    }
    now_ = slice_end;
    rebalance();
    note_gauges();
  }
  close_finished_spans();
}

void Fleet::drain() {
  int safety = 0;
  while (true) {
    bool busy = false;
    for (const auto& s : slots_) {
      if (!s->qrm->online()) continue;
      busy |= !s->qrm->queue_empty() || s->qrm->retry_backlog() > 0 ||
              s->qrm->status() != qdmi::DeviceStatus::kIdle;
    }
    if (!busy) return;
    advance_to(now_ + hours(1.0));
    expects(++safety < 100000, "Fleet::drain: runaway event loop");
  }
}

const Fleet::FleetJobRecord& Fleet::record(int id) const {
  const auto it = records_.find(id);
  if (it == records_.end())
    throw NotFoundError("Fleet: unknown job id " + std::to_string(id));
  return it->second;
}

QuantumJobState Fleet::state(int id) const {
  const FleetJobRecord& fleet_record = record(id);
  if (fleet_record.device < 0) return fleet_record.refused_state;
  return slot(fleet_record.device)
      .qrm->record(fleet_record.local_id)
      .state;
}

JobConservation Fleet::conservation() const {
  JobConservation audit;
  audit.submitted = records_.size();
  for (const auto& [id, fleet_record] : records_) {
    switch (state(id)) {
      case QuantumJobState::kCompleted: audit.completed += 1; break;
      case QuantumJobState::kFailed: audit.failed += 1; break;
      case QuantumJobState::kCancelled: audit.cancelled += 1; break;
      case QuantumJobState::kRejectedOverload:
        audit.rejected_overload += 1;
        break;
      case QuantumJobState::kRejectedTooWide:
        audit.rejected_too_wide += 1;
        break;
      case QuantumJobState::kShed: audit.shed += 1; break;
      case QuantumJobState::kMigrated: audit.migrated += 1; break;
      case QuantumJobState::kQueued:
      case QuantumJobState::kRunning:
      case QuantumJobState::kRetrying:
        audit.in_flight += 1;
        break;
    }
  }
  return audit;
}

void Fleet::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  for (auto& s : slots_) {
    s->qrm->set_tracer(tracer);
    s->service->set_tracer(tracer);
  }
}

}  // namespace hpcqc::sched
