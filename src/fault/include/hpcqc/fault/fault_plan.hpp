#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hpcqc/common/units.hpp"

namespace hpcqc::fault {

/// Named injection sites: the places in the stack where a deterministic
/// chaos campaign is allowed to break things. They mirror the failure
/// surface the paper's operations story (§3.5) and its users' feature
/// requests ("more robust job restart tools after system outages", §4)
/// circle around.
enum class FaultSite {
  kQdmiQuery,         ///< QDMI metric queries time out (compiler front end)
  kDeviceExecution,   ///< the QPU aborts the running job
  kNetworkTransfer,   ///< result transfer / serialization corrupted in flight
  kThermalExcursion,  ///< cryostat loses active cooling (facility outage)
  kCalibration,       ///< a calibration run fails to converge
  kQubitDropout,      ///< one qubit drops out of spec (partial degrade)
  kCouplerDropout,    ///< one coupler drops out of spec (partial degrade)
  kQueueFlood,        ///< a burst of low-priority submissions hits the QRM
  kCryoPlantTrip,     ///< shared cryo plant trips: every device on it warms
  kFacilityPower,     ///< facility power event hitting a subset of devices
  kProcessCrash,      ///< the QRM control-plane process dies and recovers
};

inline constexpr std::size_t kNumFaultSites = 11;

/// True for the correlated fleet sites, which describe a failure of shared
/// infrastructure rather than of one device's own stack.
inline constexpr bool is_fleet_site(FaultSite site) {
  return site == FaultSite::kCryoPlantTrip ||
         site == FaultSite::kFacilityPower;
}

const char* to_string(FaultSite site);

/// One scheduled fault: the site misbehaves during [at, at + duration).
/// For kThermalExcursion the duration is the time until the underlying
/// facility issue is identified and resolved (cooling can be restored);
/// the peak temperature — and hence quick-vs-full recalibration — follows
/// from the thermal model, not from the event.
struct FaultEvent {
  Seconds at = 0.0;
  FaultSite site = FaultSite::kDeviceExecution;
  Seconds duration = 0.0;
  std::string description;
  /// Element hit by a partial-degrade site: qubit id for kQubitDropout,
  /// coupler (edge) index for kCouplerDropout; -1 for whole-device sites.
  int target = -1;
  /// Device indices hit by a correlated fleet site (kCryoPlantTrip covers
  /// every device on the shared plant; kFacilityPower draws a subset).
  /// Empty for single-device sites.
  std::vector<int> devices{};

  Seconds end() const { return at + duration; }
};

/// A deterministic, replayable fault schedule. Either hand-authored via
/// add() (regression tests pin exact scenarios) or drawn from per-site
/// mean-time-between-failure rates with a seeded RNG (chaos campaigns):
/// the same seed always yields the same plan, so every run is replayable.
class FaultPlan {
public:
  /// Poisson-process rate of one site. mtbf == 0 disables the site.
  struct SiteRate {
    Seconds mtbf = 0.0;
    Seconds mean_duration = minutes(10.0);
  };

  struct Params {
    Seconds horizon = days(1.0);
    SiteRate qdmi_query;
    SiteRate device_execution;
    SiteRate network_transfer;
    SiteRate thermal_excursion;
    SiteRate calibration;
    SiteRate qubit_dropout;
    SiteRate coupler_dropout;
    SiteRate queue_flood;
    SiteRate cryo_plant_trip;
    SiteRate facility_power;
    /// Control-plane crashes (kill -9 on the QRM). Duration is ignored —
    /// the crash is an instant; what matters is what the write-ahead
    /// journal had flushed when it hit.
    SiteRate process_crash;
    /// Element counts for the partial-degrade sites: targets are drawn
    /// uniformly from [0, num_qubits) / [0, num_couplers). Required (> 0)
    /// when the corresponding dropout site is enabled.
    int num_qubits = 0;
    int num_couplers = 0;
    /// Fleet size for the correlated sites. kCryoPlantTrip lists every
    /// device; kFacilityPower draws a non-empty subset from the site's own
    /// child stream. Required (> 0) when either fleet site is enabled.
    int num_devices = 0;
    /// Fault windows never collapse below this (a zero-length window would
    /// be unobservable by any injection site).
    Seconds min_duration = seconds(30.0);
  };

  /// Draws exponential inter-arrival times and window lengths per site from
  /// independent child streams of `seed`.
  static FaultPlan generate(const Params& params, std::uint64_t seed);

  /// Inserts an event, keeping the schedule sorted by start time.
  FaultPlan& add(FaultEvent event);

  /// Splices every event of `other` into this plan (sorted merge) —
  /// composes a generated Poisson schedule with hand-authored scripted
  /// events, e.g. a guaranteed correlated fleet outage in a short test
  /// horizon.
  FaultPlan& merge(const FaultPlan& other);

  const std::vector<FaultEvent>& events() const { return events_; }
  std::size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  std::size_t count(FaultSite site) const;

private:
  std::vector<FaultEvent> events_;  ///< sorted by `at`
};

/// Splices the correlated fleet events of `fleet_plan` into per-device plans:
/// each device listed in an event's `devices` receives a thermal excursion of
/// the same start and duration (shared cryostats warm together; a power event
/// cuts compressors the same way), tagged with the correlated origin in its
/// description. Non-fleet events in `fleet_plan` are ignored. The per-device
/// plans keep their own independent events.
std::vector<FaultPlan> expand_fleet_events(const FaultPlan& fleet_plan,
                                           std::vector<FaultPlan> device_plans);

}  // namespace hpcqc::fault
