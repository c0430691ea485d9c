#include "hpcqc/ops/fleet_supervisor.hpp"

#include "hpcqc/common/error.hpp"

namespace hpcqc::ops {

FleetSupervisor::FleetSupervisor(sched::Fleet& fleet,
                                 std::vector<fault::FaultPlan> plans, Rng& rng,
                                 EventLog* log,
                                 telemetry::TimeSeriesStore* store,
                                 Params params)
    : fleet_(&fleet), store_(store), params_(std::move(params)) {
  if (plans.size() != fleet.num_devices())
    throw PermanentError("FleetSupervisor: need one fault plan per device (" +
                         std::to_string(plans.size()) + " plans, " +
                         std::to_string(fleet.num_devices()) + " devices)");

  auto& fleet_registry = fleet.metrics_registry();
  m_outages_ = &fleet_registry.counter("fleet.outages");
  m_downtime_ = &fleet_registry.counter("fleet.downtime_s");

  for (std::size_t i = 0; i < plans.size(); ++i) {
    const int device = static_cast<int>(i);
    const std::string& name = fleet.device_name(device);
    auto unit = std::make_unique<Unit>();
    unit->cryostat = std::make_unique<cryo::Cryostat>();
    unit->injector =
        std::make_unique<fault::FaultInjector>(std::move(plans[i]));
    fleet.qrm(device).set_fault_injector(unit->injector.get());

    SupervisorParams device_params = params_.device;
    device_params.sensor_prefix = params_.sensor_prefix + "." + name;
    device_params.metrics = &fleet.qrm(device).metrics_registry();
    unit->supervisor = std::make_unique<ResilienceSupervisor>(
        fleet.qrm(device), *unit->cryostat, fleet.device_model(device),
        *unit->injector, rng, log, store, device_params);
    auto& device_registry = unit->supervisor->metrics_registry();
    unit->device_outages = &device_registry.counter("resilience.outages");
    unit->device_recoveries =
        &device_registry.counter("resilience.recoveries");
    unit->device_downtime = &device_registry.counter("resilience.downtime_s");

    unit->m_outages = &fleet_registry.counter(params_.sensor_prefix + "." +
                                              name + ".outages");
    unit->m_downtime = &fleet_registry.counter(params_.sensor_prefix + "." +
                                               name + ".downtime_s");
    units_.push_back(std::move(unit));
  }
}

FleetSupervisor::Unit& FleetSupervisor::unit(int device) {
  expects(device >= 0 && static_cast<std::size_t>(device) < units_.size(),
          "FleetSupervisor: device index out of range");
  return *units_[static_cast<std::size_t>(device)];
}

ResilienceSupervisor& FleetSupervisor::supervisor(int device) {
  return *unit(device).supervisor;
}

fault::FaultInjector& FleetSupervisor::injector(int device) {
  return *unit(device).injector;
}

cryo::Cryostat& FleetSupervisor::cryostat(int device) {
  return *unit(device).cryostat;
}

std::string FleetSupervisor::online_sensor(int device) const {
  return params_.sensor_prefix + "." +
         fleet_->device_name(device) + ".qpu_online";
}

void FleetSupervisor::sync_counters() {
  // Mirror each device supervisor's outage/downtime deltas into the fleet
  // registry, per device and fleet-wide, so one MetricsSnapshot of the
  // fleet registry tells the whole availability story.
  for (auto& unit : units_) {
    const std::size_t outages = unit->device_outages->count();
    if (outages > unit->outages_seen) {
      const double delta = static_cast<double>(outages - unit->outages_seen);
      unit->m_outages->inc(delta);
      m_outages_->inc(delta);
      unit->outages_seen = outages;
    }
    const Seconds downtime = unit->device_downtime->value();
    if (downtime > unit->downtime_seen) {
      const Seconds delta = downtime - unit->downtime_seen;
      unit->m_downtime->inc(delta);
      m_downtime_->inc(delta);
      unit->downtime_seen = downtime;
    }
  }
}

void FleetSupervisor::step(Seconds t) {
  for (auto& unit : units_) unit->supervisor->step(t);
  fleet_->advance_to(t);
  sync_counters();
  if (store_ != nullptr)
    store_->append(params_.sensor_prefix + ".devices_online", t,
                   static_cast<double>(fleet_->devices_online()));
}

FleetResilienceStats FleetSupervisor::stats() {
  sync_counters();
  FleetResilienceStats out;
  out.devices = units_.size();
  for (const auto& unit : units_) {
    out.outages += unit->device_outages->count();
    out.recoveries += unit->device_recoveries->count();
    out.total_downtime += unit->device_downtime->value();
  }
  auto& registry = fleet_->metrics_registry();
  out.migrations =
      static_cast<std::size_t>(registry.counter("fleet.migrations").value());
  out.migration_dead_letters = static_cast<std::size_t>(
      registry.counter("fleet.migration_dead_letters").value());
  return out;
}

}  // namespace hpcqc::ops
