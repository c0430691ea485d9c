#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "hpcqc/device/device_model.hpp"
#include "hpcqc/load/traffic.hpp"
#include "hpcqc/sched/admission.hpp"
#include "hpcqc/sched/qrm.hpp"

namespace hpcqc::load {

/// Builds the concrete QuantumJob for an arrival. Thread-safe and pure:
/// the circuit is derived from a private RNG stream forked off
/// (seed, ticket), so any ingest thread can materialize any arrival and
/// always produce the identical payload.
class JobFactory {
public:
  JobFactory(const device::DeviceModel& device,
             const TrafficGenerator& traffic, std::uint64_t seed);

  sched::QuantumJob make(const Arrival& arrival) const;
  sched::StampedJob stamp(const Arrival& arrival) const;
  std::string tenant_name(std::uint32_t tenant) const;

private:
  const device::DeviceModel* device_;
  const TrafficGenerator* traffic_;
  std::uint64_t seed_;
  int device_qubits_;
};

/// Per-tenant outcome tallies (fairness assertions key off these).
struct TenantOutcome {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;
  std::size_t completed = 0;

  bool operator==(const TenantOutcome&) const = default;
};

/// Everything a campaign produces. Pure function of (schedule, QRM
/// config, seeds): `fingerprint` folds every per-job outcome into one
/// value, so replay identity across reruns / thread counts is a single
/// equality check.
struct LoadReport {
  std::size_t offered = 0;
  std::size_t admitted = 0;
  std::size_t rejected = 0;  ///< kRejectedOverload + kRejectedTooWide
  std::size_t completed = 0;
  std::size_t failed = 0;    ///< dead-lettered
  std::size_t shed = 0;
  std::uint64_t backpressure_events = 0;
  Seconds makespan = 0.0;  ///< simulated time from first slice to drain
  Seconds queue_wait_p50 = 0.0;  ///< over completed jobs
  Seconds queue_wait_p99 = 0.0;
  bool conservation_ok = false;
  /// FNV-1a over (ticket, id, state, end_time) in ticket order.
  std::uint64_t fingerprint = 0;
  std::map<std::string, TenantOutcome> tenants;
};

/// Open-loop campaign driver: walks the schedule in fixed simulated-time
/// slices; within each slice, `ingest_threads` real threads materialize
/// and offer() the slice's arrivals concurrently through a default-sized
/// lock-free gateway, then run() joins them and drains into the QRM at the
/// slice boundary. After the last slice it runs the QRM dry. Arrival
/// tickets restore canonical admission order, so the report is
/// bit-identical for any ingest_threads value.
class OpenLoopDriver {
public:
  struct Config {
    std::size_t ingest_threads = 4;
    Seconds slice = minutes(10.0);
  };

  explicit OpenLoopDriver(Config config);

  /// Runs the whole campaign against `qrm` (which must be at a time at or
  /// before the first arrival) and reports the outcome.
  LoadReport run(sched::Qrm& qrm, const JobFactory& factory,
                 const std::vector<Arrival>& schedule) const;

private:
  Config config_;
};

}  // namespace hpcqc::load
