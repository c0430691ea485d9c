#include "hpcqc/ops/campaign.hpp"

#include <algorithm>
#include <cmath>

#include "hpcqc/common/error.hpp"
#include "hpcqc/telemetry/collectors.hpp"
#include "hpcqc/telemetry/telemetry_device.hpp"

namespace hpcqc::ops {

OperationsCampaign::OperationsCampaign(CampaignConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      cooling_([&] {
        facility::CoolingLoop::Params params;
        params.redundant = config_.redundant_cooling;
        return facility::CoolingLoop(params);
      }()) {
  expects(config_.duration > 0.0 && config_.step > 0.0,
          "OperationsCampaign: duration and step must be positive");

  // Month-scale simulation: per-job distributions and sampled benchmarks
  // would dominate the runtime without changing any campaign metric.
  config_.qrm.execution_mode = device::ExecutionMode::kEstimateOnly;
  config_.qrm.benchmark.analytic = true;
  config_.workload.duration = config_.duration;

  device_ = std::make_unique<device::DeviceModel>(device::make_iqm20(rng_));
  qrm_ = std::make_unique<sched::Qrm>(*device_, config_.qrm, rng_, &log_);

  hub_.add_collector(std::make_unique<telemetry::CryostatCollector>(cryostat_),
                     config_.telemetry_period);
  hub_.add_collector(
      std::make_unique<telemetry::GasHandlingCollector>(ghs_),
      config_.telemetry_period);
  hub_.add_collector(
      std::make_unique<telemetry::CoolingLoopCollector>(cooling_),
      config_.telemetry_period);
  hub_.add_collector(std::make_unique<telemetry::PowerCollector>(power_model_,
                                                                 power_state_),
                     config_.telemetry_period);
  hub_.add_collector(
      std::make_unique<telemetry::DeviceCalibrationCollector>(*device_),
      config_.telemetry_period);

  // Standard operational alert rules over the recorded sensors.
  alerts_.add_rule({"water-over-temperature", "facility.water_supply_c",
                    telemetry::AlertCondition::kAbove, 25.0, 0.0});
  alerts_.add_rule({"qpu-warm", "cryo.mxc_temperature_k",
                    telemetry::AlertCondition::kAbove, 1.0, 0.0});
  alerts_.add_rule({"readout-degraded", "qpu.median_readout_fidelity",
                    telemetry::AlertCondition::kBelow, 0.94, hours(1.0)});
  alerts_.add_rule({"ln2-trap-low", "ghs.ln2_level_l",
                    telemetry::AlertCondition::kBelow, 3.0, 0.0});
}

CampaignResult OperationsCampaign::run() {
  CampaignResult result;
  auto workload =
      sched::generate_quantum_workload(*device_, config_.workload, rng_);
  std::size_t next_job = 0;

  std::size_t next_outage = 0;
  bool outage_active = false;
  Seconds repair_time = 0.0;
  Seconds fault_started_at = 0.0;
  double cooling_restored_at = -1.0;

  Seconds next_maintenance = config_.maintenance_period;
  Seconds maintenance_until = -1.0;
  bool maintenance_deferred = false;

  Seconds online_time = 0.0;
  int last_day = 0;

  for (Seconds t = config_.step; t <= config_.duration; t += config_.step) {
    // --- User workload arrivals ------------------------------------------
    while (next_job < workload.size() && workload[next_job].first <= t) {
      qrm_->submit(std::move(workload[next_job].second));
      ++next_job;
    }

    // --- Fault injection / repair ------------------------------------------
    if (!outage_active && next_outage < config_.outages.size() &&
        t >= config_.outages[next_outage].at) {
      const auto& outage = config_.outages[next_outage];
      outage_active = true;
      fault_started_at = t;
      repair_time = t + outage.repair_after;
      cooling_restored_at = -1.0;
      if (outage.kind == OutageEvent::Kind::kCoolingFailure) {
        cooling_.fail_primary_chiller();
        log_.error(t, "facility", "primary chiller failure");
      } else {
        ups_.set_mains(false);
        log_.error(t, "facility", "site power cut — UPS carrying the load");
      }
      ++next_outage;
    }
    if (outage_active && t >= repair_time) {
      cooling_.repair_primary_chiller();
      ups_.set_mains(true);
      outage_active = false;
      log_.info(t, "facility", "fault resolved");
    }

    // --- Facility physics -----------------------------------------------------
    cooling_.step(config_.step);
    ups_.step(config_.step, power_model_.draw(power_state_));
    const bool power_ok = ups_.output_ok();

    if (ghs_.update_water_temperature(cooling_.supply_temperature_c()))
      log_.error(t, "ghs",
                 "cooling water over temperature — cryo pumps tripped");
    if (!power_ok && ghs_.running()) {
      ghs_.trip();
      log_.error(t, "ghs", "UPS depleted — cryo pumps lost power");
    }
    if (!ghs_.running() && power_ok && !cooling_.over_temperature() &&
        (!outage_active || cooling_.backup_engaged())) {
      ghs_.restart();
      log_.info(t, "ghs", "cryo pumps restarted");
    }

    // --- Cryostat follows the pumps ------------------------------------------
    if (cryostat_.cooling_active() != ghs_.running()) {
      if (ghs_.running() && cryostat_.vacuum_intact()) {
        cryostat_.set_cooling(true);
        if (cooling_restored_at < 0.0) cooling_restored_at = t;
        log_.info(t, "cryo", "active cooling restored — cooldown started");
      } else if (!ghs_.running()) {
        cryostat_.set_cooling(false);
        if (qrm_->online()) qrm_->set_offline("active cooling lost");
        log_.warning(t, "cryo", "active cooling lost — QPU warming up");
      }
    }
    cryostat_.step(config_.step);
    power_state_ = !cryostat_.cooling_active()
                       ? facility::QcPowerState::kMaintenance
                       : (cryostat_.at_base()
                              ? facility::QcPowerState::kSteady
                              : facility::QcPowerState::kCooldown);

    // --- Preventive maintenance (§3.4) ----------------------------------------
    if (t >= next_maintenance) {
      if (qrm_->online() && !outage_active) {
        maintenance_until = t + config_.maintenance_duration;
        // Schedule the next window from the actual start, not the nominal
        // due time: a window deferred past a long outage must not make the
        // following windows fire back-to-back to "catch up".
        next_maintenance = t + config_.maintenance_period;
        qrm_->set_offline("preventive maintenance window");
        ghs_.flush_ln2_system();
        if (ups_.battery_health() < 0.8) ups_.replace_batteries();
        if (ghs_.tip_seal_health() < 0.4) ghs_.replace_tip_seals();
        ++result.maintenance_windows;
        maintenance_deferred = false;
        log_.info(t, "ops", "one-day preventive maintenance started");
      } else if (!maintenance_deferred) {
        // Due while the QPU is already down: defer until it is back in
        // service (counted once per due window).
        maintenance_deferred = true;
        ++result.maintenance_deferrals;
        log_.info(t, "ops",
                  std::string("preventive maintenance deferred: ") +
                      (outage_active ? "outage in progress"
                                     : "QPU out of service"));
      }
    }

    // --- Return to service ------------------------------------------------------
    if (!qrm_->online() && cryostat_.at_base() &&
        cryostat_.cooling_active() && t >= maintenance_until) {
      const bool preserved = cryostat_.calibration_preserved();
      RecoveryReport report;
      report.peak_temperature = cryostat_.peak_since_operating();
      report.calibration_preserved = preserved;
      report.fault_resolution =
          cooling_restored_at > 0.0 ? cooling_restored_at - fault_started_at
                                    : 0.0;
      report.cooldown =
          cooling_restored_at > 0.0 ? t - cooling_restored_at : 0.0;
      report.calibration_used = preserved
                                    ? calibration::CalibrationKind::kQuick
                                    : calibration::CalibrationKind::kFull;
      // Maintenance windows keep the cryostat cold; only real thermal
      // excursions count as recoveries and need a recalibration.
      if (report.peak_temperature > cryostat_.params().operating_threshold) {
        result.recoveries.push_back(report);
        qrm_->request_calibration(report.calibration_used);
      }
      cryostat_.acknowledge_recovery();
      qrm_->set_online();
    }

    // --- Weekly on-site task: LN2 top-up (§3.3) ---------------------------------
    if (ghs_.ln2_low()) {
      ghs_.refill_ln2();
      ++result.ln2_refills;
      log_.debug(t, "ops", "on-site LN2 top-up (~10 l)");
    }
    ghs_.step(config_.step);

    // --- Quantum resource manager -------------------------------------------------
    qrm_->advance_to(t);

    // --- Telemetry -----------------------------------------------------------------
    if (hub_.poll(t) > 0) {
      hub_.store().append(telemetry::TelemetryBackedDevice::kStatusSensor, t,
                          static_cast<double>(qrm_->status()));
      for (const auto& event : alerts_.evaluate(hub_.store(), t)) {
        if (event.raised) {
          ++result.alerts_raised;
          log_.warning(t, "alerts", "raised: " + event.rule);
        } else {
          log_.info(t, "alerts", "cleared: " + event.rule);
        }
      }
    }

    if (qrm_->online()) online_time += config_.step;

    // --- Daily Fig. 4 record ---------------------------------------------------------
    const int day = static_cast<int>(to_days(t));
    if (day > last_day) {
      const auto& cal = device_->calibration();
      DailyRecord record;
      record.day = day;
      record.median_fidelity_1q = cal.median_fidelity_1q();
      record.median_fidelity_cz = cal.median_fidelity_cz();
      record.median_readout_fidelity = cal.median_readout_fidelity();
      record.latest_ghz_success =
          qrm_->controller().benchmark_history().empty()
              ? 0.0
              : qrm_->controller().benchmark_history().back().ghz_success;
      record.online = qrm_->online();
      result.daily.push_back(record);
      last_day = day;
    }
  }

  result.quick_calibrations = qrm_->controller().calibration_count(
      calibration::CalibrationKind::kQuick);
  result.full_calibrations = qrm_->controller().calibration_count(
      calibration::CalibrationKind::kFull);
  result.uptime_fraction = online_time / config_.duration;
  return result;
}

}  // namespace hpcqc::ops
