#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hpcqc/common/log.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/device/device_model.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/ops/recovery.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/alerts.hpp"
#include "hpcqc/telemetry/store.hpp"

namespace hpcqc::ops {

/// Tunables of the outage supervisor (namespace scope so it can serve as a
/// defaulted constructor argument).
struct SupervisorParams {
  RecoveryProcedure::Params recovery;
  std::string sensor_prefix = "resilience";
  /// Targeted recalibration: once a dropout's underlying fault clears, only
  /// the failed element is recalibrated (fresh metrics installed) before it
  /// is unmasked — this long after the fault window closes. The rest of the
  /// device keeps serving throughout.
  Seconds targeted_recal_duration = minutes(10.0);
  /// Synthetic low-priority submissions per step while a kQueueFlood window
  /// is active — the overload the QRM's admission control must absorb.
  /// 0 disables flood generation (windows are then inert).
  std::size_t flood_jobs_per_step = 4;
  std::size_t flood_shots = 100;
  /// Shared metrics registry for the resilience.* counters/gauges; null
  /// gives the supervisor a private registry (see metrics_registry()).
  obs::MetricsRegistry* metrics = nullptr;
};

/// Wires injected facility faults to the §3.5 recovery staging. On a
/// kThermalExcursion event it takes the QPU offline (the QRM retains its
/// queue) and lets the cryostat warm; when the underlying fault is repaired
/// (the event window closes) it restores cooling and runs
/// ops::RecoveryProcedure — which picks quick vs full recalibration from
/// the peak excursion temperature — then returns the QRM to service, at
/// which point the retained queue (and any retry backlog) resumes.
/// Every transition is timestamped into the EventLog and, when a store is
/// attached, onto "<prefix>.*" telemetry sensors so campaigns can report
/// availability and MTTR through the same analytics layer as Fig. 3.
class ResilienceSupervisor {
public:
  using Params = SupervisorParams;

  /// All referents must outlive the supervisor; `log` / `store` optional.
  ResilienceSupervisor(sched::Qrm& qrm, cryo::Cryostat& cryostat,
                       device::DeviceModel& device,
                       fault::FaultInjector& injector, Rng& rng,
                       EventLog* log = nullptr,
                       telemetry::TimeSeriesStore* store = nullptr,
                       Params params = {});

  /// Advances outage orchestration to time `t` (non-decreasing): consumes
  /// due injector events, steps the cryostat thermal model, and drives the
  /// offline -> repair -> recover -> online staging. Call once per campaign
  /// step, before Qrm::advance_to(t).
  void step(Seconds t);

  bool outage_active() const { return outage_active_; }
  /// One report per completed recovery, in order.
  const std::vector<RecoveryReport>& reports() const { return reports_; }

  /// The live registry holding the resilience.* metrics: outages,
  /// recoveries, downtime_s, qubit/coupler dropouts, targeted_recals and
  /// flood_jobs_submitted/_rejected (counters); qpu_online and brownout
  /// (gauges).
  obs::MetricsRegistry& metrics_registry() { return *registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// Standard alert rules over the supervisor's sensors: QPU-down,
  /// dead-letter accumulation, and brownout shedding. When
  /// `min_healthy_qubits` > 0, a degraded-capacity rule fires while the
  /// healthy-qubit gauge sits below it.
  static void install_alert_rules(telemetry::AlertEngine& alerts,
                                  const std::string& prefix = "resilience",
                                  double min_healthy_qubits = 0.0);

private:
  /// One masked element awaiting targeted recalibration.
  struct ActiveDegrade {
    fault::FaultEvent event;
    Seconds restore_at = 0.0;  ///< event.end() + targeted_recal_duration
  };

  void begin_outage(const fault::FaultEvent& event);
  void repair_and_recover();
  void begin_degrade(const fault::FaultEvent& event);
  void process_degrade_restores(Seconds t);
  void generate_flood(Seconds t);
  void record_sensors(Seconds t);

  sched::Qrm* qrm_;
  cryo::Cryostat* cryostat_;
  device::DeviceModel* device_;
  fault::FaultInjector* injector_;
  Rng* rng_;
  EventLog* log_;
  telemetry::TimeSeriesStore* store_;
  RecoveryProcedure recovery_;
  std::string prefix_;
  Params params_;

  std::vector<ActiveDegrade> degrades_;
  std::size_t flood_counter_ = 0;
  std::size_t last_shed_seen_ = 0;

  Seconds last_step_ = 0.0;
  bool outage_active_ = false;
  bool recovery_done_ = false;
  Seconds outage_started_ = 0.0;
  Seconds repair_at_ = 0.0;
  Seconds online_at_ = 0.0;
  std::vector<RecoveryReport> reports_;

  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* m_outages_ = nullptr;
  obs::Counter* m_recoveries_ = nullptr;
  obs::Counter* m_downtime_ = nullptr;
  obs::Counter* m_qubit_dropouts_ = nullptr;
  obs::Counter* m_coupler_dropouts_ = nullptr;
  obs::Counter* m_targeted_recals_ = nullptr;
  obs::Counter* m_flood_submitted_ = nullptr;
  obs::Counter* m_flood_rejected_ = nullptr;
  obs::Gauge* m_qpu_online_ = nullptr;
  obs::Gauge* m_brownout_ = nullptr;
};

}  // namespace hpcqc::ops
