#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hpcqc/cryo/cryostat.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/ops/resilience.hpp"
#include "hpcqc/sched/fleet.hpp"
#include "hpcqc/telemetry/store.hpp"

namespace hpcqc::ops {

/// Aggregate outage bookkeeping across every device of a supervised fleet.
struct FleetResilienceStats {
  std::size_t devices = 0;
  std::size_t outages = 0;
  std::size_t recoveries = 0;
  Seconds total_downtime = 0.0;  ///< summed over devices
  std::size_t migrations = 0;
  std::size_t migration_dead_letters = 0;

  Seconds mttr() const {
    return recoveries == 0 ? 0.0
                           : total_downtime / static_cast<double>(recoveries);
  }
  /// Mean per-device availability over `window`.
  double mean_availability(Seconds window) const {
    if (devices == 0 || window <= 0.0) return 1.0;
    return 1.0 - total_downtime / (window * static_cast<double>(devices));
  }
};

/// Tunables of the fleet supervisor (namespace scope so it can serve as a
/// defaulted constructor argument).
struct FleetSupervisorParams {
  /// Per-device supervisor tunables. sensor_prefix is overridden per
  /// device ("<fleet_prefix>.<device_name>"); the metrics field is
  /// overridden with the device QRM's registry so each device's
  /// resilience counters live beside its qrm.* metrics.
  SupervisorParams device;
  /// Prefix of the fleet sensors and of each device's sensor namespace.
  std::string sensor_prefix = "fleet";
};

/// One ResilienceSupervisor per fleet device, each with its own cryostat
/// thermal model and fault injector, plus the fleet-level glue: after the
/// per-device outage staging and the fleet's own coordination step, stranded
/// work has been migrated off downed devices, and the fleet registry carries
/// per-device and fleet-wide outage/downtime counters next to the migration
/// counters the Fleet itself maintains.
///
/// Correlated sites (kCryoPlantTrip, kFacilityPower) must be expanded into
/// the per-device plans first — see fault::expand_fleet_events — so one
/// facility event lands as synchronized thermal excursions on every listed
/// device.
class FleetSupervisor {
public:
  using Params = FleetSupervisorParams;

  /// One fault plan per fleet device, in device order (PermanentError on a
  /// count mismatch). All referents must outlive the supervisor.
  FleetSupervisor(sched::Fleet& fleet, std::vector<fault::FaultPlan> plans,
                  Rng& rng, EventLog* log = nullptr,
                  telemetry::TimeSeriesStore* store = nullptr,
                  Params params = {});

  /// Advances the campaign to `t` (non-decreasing): steps every device
  /// supervisor in index order, then the fleet itself (which rebalances at
  /// coordination-slice boundaries), then refreshes the fleet-level
  /// counters and sensors.
  void step(Seconds t);

  std::size_t num_devices() const { return units_.size(); }
  ResilienceSupervisor& supervisor(int device);
  fault::FaultInjector& injector(int device);
  cryo::Cryostat& cryostat(int device);

  /// Fleet-wide totals. Per-device counts live in each device
  /// supervisor's registry (supervisor(d).metrics_registry()).
  FleetResilienceStats stats();

  /// Sensor name carrying a device's 1/0 online signal
  /// ("<fleet_prefix>.<device_name>.qpu_online") — feed these to
  /// telemetry::fleet_availability_from_store.
  std::string online_sensor(int device) const;

private:
  struct Unit {
    std::unique_ptr<cryo::Cryostat> cryostat;
    std::unique_ptr<fault::FaultInjector> injector;
    std::unique_ptr<ResilienceSupervisor> supervisor;
    /// The supervisor's resilience.* counters.
    const obs::Counter* device_outages = nullptr;
    const obs::Counter* device_recoveries = nullptr;
    const obs::Counter* device_downtime = nullptr;
    std::size_t outages_seen = 0;
    Seconds downtime_seen = 0.0;
    obs::Counter* m_outages = nullptr;
    obs::Counter* m_downtime = nullptr;
  };

  Unit& unit(int device);
  void sync_counters();

  sched::Fleet* fleet_;
  telemetry::TimeSeriesStore* store_;
  Params params_;
  std::vector<std::unique_ptr<Unit>> units_;
  obs::Counter* m_outages_ = nullptr;
  obs::Counter* m_downtime_ = nullptr;
};

}  // namespace hpcqc::ops
