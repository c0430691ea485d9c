#include "hpcqc/ops/resilience.hpp"

#include <algorithm>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/error.hpp"

namespace hpcqc::ops {

ResilienceSupervisor::ResilienceSupervisor(
    sched::Qrm& qrm, cryo::Cryostat& cryostat, device::DeviceModel& device,
    fault::FaultInjector& injector, Rng& rng, EventLog* log,
    telemetry::TimeSeriesStore* store, Params params)
    : qrm_(&qrm),
      cryostat_(&cryostat),
      device_(&device),
      injector_(&injector),
      rng_(&rng),
      log_(log),
      store_(store),
      recovery_(params.recovery),
      prefix_(params.sensor_prefix),
      params_(std::move(params)) {
  if (params_.metrics == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry_ = owned_registry_.get();
  } else {
    registry_ = params_.metrics;
  }
  m_outages_ = &registry_->counter("resilience.outages");
  m_recoveries_ = &registry_->counter("resilience.recoveries");
  m_downtime_ = &registry_->counter("resilience.downtime_s");
  m_qubit_dropouts_ = &registry_->counter("resilience.qubit_dropouts");
  m_coupler_dropouts_ = &registry_->counter("resilience.coupler_dropouts");
  m_targeted_recals_ = &registry_->counter("resilience.targeted_recals");
  m_flood_submitted_ = &registry_->counter("resilience.flood_jobs_submitted");
  m_flood_rejected_ = &registry_->counter("resilience.flood_jobs_rejected");
  m_qpu_online_ = &registry_->gauge("resilience.qpu_online");
  m_qpu_online_->set(1.0);
  m_brownout_ = &registry_->gauge("resilience.brownout");
}

void ResilienceSupervisor::step(Seconds t) {
  expects(t >= last_step_,
          "ResilienceSupervisor::step: time must not go backwards");

  // One-shot event delivery: thermal excursions drive the whole-device
  // outage staging; qubit/coupler dropouts drive the partial-degrade path
  // (mask -> keep serving -> targeted recal -> unmask). Execution /
  // calibration / query faults are handled in place by the QRM and the MQSS
  // service through the same injector, and queue floods are window-checked
  // below rather than event-driven.
  std::vector<fault::FaultEvent> thermal;
  for (const auto& event : injector_->poll(t)) {
    switch (event.site) {
      case fault::FaultSite::kThermalExcursion:
        thermal.push_back(event);
        break;
      case fault::FaultSite::kQubitDropout:
      case fault::FaultSite::kCouplerDropout:
        begin_degrade(event);
        break;
      default:
        break;
    }
  }

  // Walk the interval [last_step_, t] segment by segment so the cryostat is
  // in the right cooling state across each boundary: an excursion flips
  // cooling off at its onset; the repair boundary flips it back on and runs
  // the staged recovery.
  std::size_t next_event = 0;
  while (true) {
    Seconds boundary = t;
    if (next_event < thermal.size())
      boundary = std::min(boundary, std::max(last_step_,
                                             thermal[next_event].at));
    if (outage_active_ && !recovery_done_)
      boundary = std::min(boundary, std::max(last_step_, repair_at_));

    if (boundary > last_step_) {
      cryostat_->step(boundary - last_step_);
      last_step_ = boundary;
    }

    if (next_event < thermal.size() &&
        thermal[next_event].at <= last_step_) {
      const fault::FaultEvent& event = thermal[next_event++];
      if (!outage_active_) {
        begin_outage(event);
      } else {
        // Overlapping excursion extends the repair window.
        repair_at_ = std::max(repair_at_, event.end());
      }
      continue;
    }
    if (outage_active_ && !recovery_done_ && last_step_ >= repair_at_) {
      repair_and_recover();
      continue;
    }
    if (last_step_ >= t && next_event >= thermal.size()) break;
  }

  if (outage_active_ && recovery_done_ && t >= online_at_) {
    const Seconds downtime = online_at_ - outage_started_;
    m_recoveries_->inc();
    m_downtime_->inc(downtime);
    outage_active_ = false;
    recovery_done_ = false;
    m_qpu_online_->set(1.0);
    qrm_->set_online();
    if (log_)
      log_->info(online_at_, "resilience",
                 "QPU returned to service after " +
                     std::to_string(downtime / hours(1.0)) + " h downtime");
    if (store_)
      store_->append(prefix_ + ".recovery_duration_s", t, downtime);
  }

  process_degrade_restores(t);
  generate_flood(t);
  record_sensors(t);
}

void ResilienceSupervisor::begin_degrade(const fault::FaultEvent& event) {
  const auto& topology = device_->topology();
  if (event.site == fault::FaultSite::kQubitDropout) {
    expects(event.target >= 0 && event.target < topology.num_qubits(),
            "begin_degrade: qubit target out of range");
    device_->set_qubit_health(event.target, false);
    m_qubit_dropouts_->inc();
  } else {
    expects(event.target >= 0 && event.target < topology.num_edges(),
            "begin_degrade: coupler target out of range");
    const auto& edge = topology.edges()[static_cast<std::size_t>(event.target)];
    device_->set_coupler_health(edge.first, edge.second, false);
    m_coupler_dropouts_->inc();
  }
  degrades_.push_back(
      {event, event.end() + params_.targeted_recal_duration});
  if (log_) {
    const auto& mask = device_->health();
    log_->warning(
        event.at, "resilience",
        event.description + " masked; serving degraded (" +
            std::to_string(mask.healthy_qubit_count()) + "/" +
            std::to_string(topology.num_qubits()) + " qubits, largest "
            "component " +
            std::to_string(mask.largest_component(topology).size()) + ")");
  }
}

void ResilienceSupervisor::process_degrade_restores(Seconds t) {
  // Targeted recalibration: when a dropout's fault window has closed and the
  // recal slot has elapsed, refresh ONLY the failed element's metrics and
  // return it to the serving set. The whole-device calibration cadence is
  // untouched — this is maintenance on one element while the rest serves.
  for (std::size_t i = 0; i < degrades_.size();) {
    if (degrades_[i].restore_at > t) {
      ++i;
      continue;
    }
    const ActiveDegrade degrade = degrades_[i];
    degrades_.erase(degrades_.begin() + static_cast<std::ptrdiff_t>(i));
    const auto& topology = device_->topology();
    const device::CalibrationState fresh =
        device_->sample_fresh_calibration(t, *rng_);
    device::CalibrationState live = device_->calibration();
    const int target = degrade.event.target;
    if (degrade.event.site == fault::FaultSite::kQubitDropout) {
      live.qubits[static_cast<std::size_t>(target)] =
          fresh.qubits[static_cast<std::size_t>(target)];
      device_->install_live_state(std::move(live));
      device_->set_qubit_health(target, true);
    } else {
      live.couplers[static_cast<std::size_t>(target)] =
          fresh.couplers[static_cast<std::size_t>(target)];
      device_->install_live_state(std::move(live));
      const auto& edge = topology.edges()[static_cast<std::size_t>(target)];
      device_->set_coupler_health(edge.first, edge.second, true);
    }
    m_targeted_recals_->inc();
    if (log_)
      log_->info(t, "resilience",
                 degrade.event.description +
                     " recalibrated and unmasked (targeted recal)");
  }
}

void ResilienceSupervisor::generate_flood(Seconds t) {
  if (params_.flood_jobs_per_step == 0 || outage_active_) return;
  if (!injector_->active(fault::FaultSite::kQueueFlood, t)) return;
  // The flood is the *attack*, not the response: a deterministic burst of
  // low-priority work that the QRM's admission control must absorb without
  // losing track of a single submission.
  const circuit::Circuit burst_circuit =
      calibration::GhzBenchmark::chain_circuit(*device_, 2);
  for (std::size_t i = 0; i < params_.flood_jobs_per_step; ++i) {
    sched::QuantumJob job;
    job.name = "flood-" + std::to_string(flood_counter_++);
    job.circuit = burst_circuit;
    job.shots = params_.flood_shots;
    job.priority = sched::JobPriority::kLow;
    const int id = qrm_->submit(std::move(job));
    m_flood_submitted_->inc();
    const auto state = qrm_->record(id).state;
    if (state == sched::QuantumJobState::kRejectedOverload ||
        state == sched::QuantumJobState::kRejectedTooWide)
      m_flood_rejected_->inc();
  }
  if (log_)
    log_->debug(t, "resilience",
                "queue flood: submitted " +
                    std::to_string(params_.flood_jobs_per_step) +
                    " low-priority jobs");
}

void ResilienceSupervisor::begin_outage(const fault::FaultEvent& event) {
  outage_active_ = true;
  recovery_done_ = false;
  outage_started_ = event.at;
  repair_at_ = event.end();
  m_outages_->inc();
  m_qpu_online_->set(0.0);
  cryostat_->set_cooling(false);
  qrm_->set_offline(event.description.empty() ? "thermal excursion"
                                              : event.description);
  if (log_)
    log_->warning(event.at, "resilience",
                  "outage: " + event.description + "; repair expected in " +
                      std::to_string(event.duration / hours(1.0)) + " h");
}

void ResilienceSupervisor::repair_and_recover() {
  // Underlying issue fixed at repair_at_: restore cooling and run the §3.5
  // staging. RecoveryProcedure steps the cryostat to base and recalibrates
  // the device itself (quick vs full from the peak excursion temperature),
  // so we must not also schedule a QRM calibration for it.
  cryostat_->set_cooling(true);
  const Seconds fault_resolution = repair_at_ - outage_started_;
  RecoveryReport report = recovery_.execute(*cryostat_, *device_,
                                            fault_resolution, *rng_, log_,
                                            repair_at_);
  online_at_ =
      repair_at_ + report.cooldown + report.calibration + report.verification;
  recovery_done_ = true;
  reports_.push_back(report);
  if (store_) {
    store_->append(prefix_ + ".recovery_cooldown_s", repair_at_,
                   report.cooldown);
    store_->append(prefix_ + ".recovery_peak_k", repair_at_,
                   report.peak_temperature);
  }
}

void ResilienceSupervisor::record_sensors(Seconds t) {
  if (store_ == nullptr) return;
  store_->append(prefix_ + ".qpu_online", t, outage_active_ ? 0.0 : 1.0);
  store_->append(prefix_ + ".dead_letters", t,
                 static_cast<double>(qrm_->dead_letters().size()));
  store_->append(prefix_ + ".retry_backlog", t,
                 static_cast<double>(qrm_->retry_backlog()));
  store_->append(prefix_ + ".queue_length", t,
                 static_cast<double>(qrm_->queue_length()));

  // Degraded-capability and overload gauges.
  const auto& mask = device_->health();
  const auto& topology = device_->topology();
  store_->append(prefix_ + ".healthy_qubits", t,
                 static_cast<double>(mask.healthy_qubit_count()));
  store_->append(prefix_ + ".largest_component", t,
                 static_cast<double>(mask.largest_component(topology).size()));
  const sched::JobConservation audit = qrm_->conservation();
  const double refused =
      static_cast<double>(audit.shed + audit.rejected_overload);
  store_->append(prefix_ + ".shed_jobs", t, refused);
  store_->append(
      prefix_ + ".shed_rate", t,
      audit.submitted == 0
          ? 0.0
          : refused / static_cast<double>(audit.submitted));
  store_->append(prefix_ + ".admission_wait_s", t, qrm_->estimated_wait());
  // A brownout episode can begin and end between two samples when shedding
  // empties the queue; latch on the shed counter so alerting still sees it.
  const bool shedding = qrm_->brownout() || audit.shed > last_shed_seen_;
  last_shed_seen_ = audit.shed;
  store_->append(prefix_ + ".brownout", t, shedding ? 1.0 : 0.0);
  m_brownout_->set(shedding ? 1.0 : 0.0);
}

void ResilienceSupervisor::install_alert_rules(telemetry::AlertEngine& alerts,
                                               const std::string& prefix,
                                               double min_healthy_qubits) {
  alerts.add_rule({prefix + ".qpu_down", prefix + ".qpu_online",
                   telemetry::AlertCondition::kBelow, 0.5, 0.0});
  alerts.add_rule({prefix + ".jobs_lost", prefix + ".dead_letters",
                   telemetry::AlertCondition::kAbove, 0.5, 0.0});
  alerts.add_rule({prefix + ".shedding", prefix + ".brownout",
                   telemetry::AlertCondition::kAbove, 0.5, 0.0});
  if (min_healthy_qubits > 0.0)
    alerts.add_rule({prefix + ".degraded_capacity", prefix + ".healthy_qubits",
                     telemetry::AlertCondition::kBelow, min_healthy_qubits,
                     0.0});
}

}  // namespace hpcqc::ops
