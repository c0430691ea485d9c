#include "hpcqc/load/driver.hpp"

#include <algorithm>
#include <thread>

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/common/error.hpp"
#include "hpcqc/sched/workload.hpp"

namespace hpcqc::load {

namespace {

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFULL;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t fnv1a_double(std::uint64_t hash, double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  __builtin_memcpy(&bits, &value, sizeof(bits));
  return fnv1a(hash, bits);
}

Seconds percentile(std::vector<Seconds>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[index];
}

}  // namespace

JobFactory::JobFactory(const device::DeviceModel& device,
                       const TrafficGenerator& traffic, std::uint64_t seed)
    : device_(&device),
      traffic_(&traffic),
      seed_(seed),
      device_qubits_(device.num_qubits()) {}

sched::QuantumJob JobFactory::make(const Arrival& arrival) const {
  // Fork a private stream per arrival: circuit content then depends only
  // on (seed, ticket), never on which thread builds it or in what order.
  Rng rng(seed_ ^ (arrival.ticket * 0x9E3779B97F4A7C15ULL + 1));
  const int qubits = std::min(arrival.qubits, device_qubits_);
  sched::QuantumJob job;
  job.name = std::string(to_string(arrival.job_class)) + "-" +
             std::to_string(arrival.ticket);
  job.project = traffic_->tenant_name(arrival.tenant);
  job.shots = arrival.shots;
  job.priority = arrival.priority;
  switch (arrival.job_class) {
    case JobClass::kGhz:
      job.circuit = calibration::GhzBenchmark::chain_circuit(*device_, qubits);
      break;
    case JobClass::kSampling:
    case JobClass::kVqeTightLoop:
    case JobClass::kQaoa:
      job.circuit = sched::chain_brickwork_circuit(*device_, qubits,
                                                   arrival.layers, rng);
      break;
  }
  return job;
}

std::string JobFactory::tenant_name(std::uint32_t tenant) const {
  return traffic_->tenant_name(tenant);
}

sched::StampedJob JobFactory::stamp(const Arrival& arrival) const {
  sched::StampedJob item;
  item.ticket = arrival.ticket;
  item.arrival = arrival.time;
  item.job = make(arrival);
  return item;
}

OpenLoopDriver::OpenLoopDriver(Config config) : config_(std::move(config)) {
  expects(config_.ingest_threads >= 1,
          "OpenLoopDriver: need at least one ingest thread");
  expects(config_.slice > 0.0, "OpenLoopDriver: slice must be positive");
}

LoadReport OpenLoopDriver::run(sched::Qrm& qrm, const JobFactory& factory,
                               const std::vector<Arrival>& schedule) const {
  sched::AdmissionGateway gateway(qrm, {});
  const Seconds start = qrm.now();
  std::vector<std::pair<std::uint64_t, int>> outcomes;
  outcomes.reserve(schedule.size());

  std::size_t next = 0;
  Seconds slice_end = start + config_.slice;
  while (next < schedule.size()) {
    std::size_t last = next;
    while (last < schedule.size() && schedule[last].time < slice_end)
      ++last;
    if (last > next) {
      // Real concurrent ingestion: the slice's arrivals are offered from
      // N threads racing on the lock-free shards. The interleaving is
      // whatever the OS gives us — tickets make it irrelevant.
      const std::size_t stride = config_.ingest_threads;
      std::vector<std::thread> workers;
      workers.reserve(stride);
      for (std::size_t w = 0; w < stride; ++w) {
        workers.emplace_back([&, w] {
          for (std::size_t k = next + w; k < last; k += stride)
            gateway.offer(factory.stamp(schedule[k]));
        });
      }
      for (std::thread& worker : workers) worker.join();
    }
    // Slice barrier: everything offered is visible, so the drain at the
    // boundary sees the complete slice and admits it in ticket order on
    // the simulated clock.
    qrm.advance_to(slice_end);
    const auto batch = gateway.drain_and_admit();
    outcomes.insert(outcomes.end(), batch.begin(), batch.end());
    next = last;
    slice_end += config_.slice;
  }
  qrm.drain();

  LoadReport report;
  report.offered = schedule.size();
  report.backpressure_events = gateway.backpressure_events();
  report.makespan = qrm.now() - start;
  report.conservation_ok = qrm.conservation().holds();

  std::sort(outcomes.begin(), outcomes.end());
  std::vector<Seconds> waits;
  waits.reserve(outcomes.size());
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  std::map<std::uint32_t, TenantOutcome> tenant_by_index;
  for (const Arrival& arrival : schedule)
    tenant_by_index[arrival.tenant].offered += 1;
  std::size_t cursor = 0;
  for (const auto& [ticket, id] : outcomes) {
    const sched::QuantumJobRecord& record = qrm.record(id);
    // Schedules and outcomes are both ticket-ordered, so the arrival for
    // this outcome is found by advancing a cursor, not searching.
    while (cursor < schedule.size() && schedule[cursor].ticket != ticket)
      ++cursor;
    ensure_state(cursor < schedule.size(),
                 "OpenLoopDriver: outcome ticket missing from schedule");
    TenantOutcome& tenant = tenant_by_index[schedule[cursor].tenant];
    switch (record.state) {
      case sched::QuantumJobState::kCompleted:
        report.completed += 1;
        tenant.admitted += 1;
        tenant.completed += 1;
        waits.push_back(record.wait_time());
        break;
      case sched::QuantumJobState::kRejectedOverload:
      case sched::QuantumJobState::kRejectedTooWide:
        report.rejected += 1;
        tenant.rejected += 1;
        break;
      case sched::QuantumJobState::kFailed:
        report.failed += 1;
        tenant.admitted += 1;
        break;
      case sched::QuantumJobState::kShed:
        report.shed += 1;
        tenant.admitted += 1;
        break;
      default:
        tenant.admitted += 1;
        break;
    }
    hash = fnv1a(hash, ticket);
    hash = fnv1a(hash, static_cast<std::uint64_t>(id));
    hash = fnv1a(hash, static_cast<std::uint64_t>(record.state));
    hash = fnv1a_double(hash, record.end_time);
  }
  report.admitted = report.offered - report.rejected;
  report.fingerprint = hash;

  std::sort(waits.begin(), waits.end());
  report.queue_wait_p50 = percentile(waits, 0.50);
  report.queue_wait_p99 = percentile(waits, 0.99);

  for (const auto& [index, outcome] : tenant_by_index)
    report.tenants.emplace(factory.tenant_name(index), outcome);
  return report;
}

}  // namespace hpcqc::load
