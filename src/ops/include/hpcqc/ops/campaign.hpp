#pragma once

#include <memory>
#include <vector>

#include "hpcqc/common/log.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/cryo/gas_handling.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/facility/cooling.hpp"
#include "hpcqc/facility/power.hpp"
#include "hpcqc/ops/recovery.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/sched/workload.hpp"
#include "hpcqc/telemetry/alerts.hpp"
#include "hpcqc/telemetry/collector.hpp"

namespace hpcqc::ops {

/// A facility fault injected into the campaign.
struct OutageEvent {
  Seconds at = 0.0;
  enum class Kind { kCoolingFailure, kPowerCut } kind = Kind::kCoolingFailure;
  /// Time until the underlying issue is identified and resolved.
  Seconds repair_after = hours(4.0);
};

/// Configuration of a multi-day autonomous-operations simulation.
struct CampaignConfig {
  Seconds duration = days(146.0);  ///< the Fig. 4 observation window
  Seconds step = minutes(10.0);
  std::uint64_t seed = 42;
  sched::Qrm::Config qrm;
  sched::QuantumWorkloadParams workload;
  Seconds telemetry_period = minutes(30.0);
  std::vector<OutageEvent> outages;
  bool redundant_cooling = false;
  /// §3.4: one-day preventive maintenance roughly every six months.
  Seconds maintenance_period = days(183.0);
  Seconds maintenance_duration = days(1.0);
};

/// One day of Fig.-4-style medians.
struct DailyRecord {
  int day = 0;
  double median_fidelity_1q = 0.0;
  double median_fidelity_cz = 0.0;
  double median_readout_fidelity = 0.0;
  double latest_ghz_success = 0.0;
  bool online = true;
};

/// Aggregate outcome of one campaign.
struct CampaignResult {
  std::vector<DailyRecord> daily;
  std::size_t quick_calibrations = 0;
  std::size_t full_calibrations = 0;
  double uptime_fraction = 0.0;
  std::vector<RecoveryReport> recoveries;
  std::size_t ln2_refills = 0;
  std::size_t maintenance_windows = 0;
  /// Windows that came due while an outage (or its recovery) held the QPU
  /// out of service; each is deferred — started once the QPU returns —
  /// never silently dropped.
  std::size_t maintenance_deferrals = 0;
  /// Alert raise events over the campaign (the Fig.-3 operational-analytics
  /// layer reacting to the telemetry: over-temperature water, degraded GHZ
  /// health, UPS discharge).
  std::size_t alerts_raised = 0;
};

/// The daily-operations simulation (§3): drift + automated calibration +
/// telemetry + user workload + facility faults + preventive maintenance,
/// run for months of simulated time. With default parameters it reproduces
/// the Fig. 4 result: consistent 1Q / readout / CZ fidelities over a
/// 146-day window with no human intervention in calibration.
class OperationsCampaign {
public:
  explicit OperationsCampaign(CampaignConfig config);

  CampaignResult run();

  const telemetry::TimeSeriesStore& store() const { return hub_.store(); }
  const telemetry::AlertEngine& alerts() const { return alerts_; }
  const EventLog& log() const { return log_; }
  const device::DeviceModel& device() const { return *device_; }
  /// The campaign's QRM; its qrm.* counters live in
  /// qrm().metrics_registry().
  const sched::Qrm& qrm() const { return *qrm_; }

private:
  CampaignConfig config_;
  Rng rng_;
  EventLog log_;
  std::unique_ptr<device::DeviceModel> device_;
  cryo::Cryostat cryostat_;
  cryo::GasHandlingSystem ghs_;
  facility::CoolingLoop cooling_;
  facility::Ups ups_;
  facility::QcPowerModel power_model_;
  facility::QcPowerState power_state_ = facility::QcPowerState::kSteady;
  telemetry::TelemetryHub hub_;
  telemetry::AlertEngine alerts_;
  std::unique_ptr<sched::Qrm> qrm_;
};

}  // namespace hpcqc::ops
