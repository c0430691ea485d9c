// The open-loop traffic engine and campaign driver: schedule determinism,
// diurnal shape, replay bit-identity across reruns and ingest thread
// counts, tenant fairness under a 10x overload flood, and job conservation
// with concurrent submitters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "hpcqc/common/error.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/load/driver.hpp"
#include "hpcqc/load/traffic.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "ledger_audit.hpp"

namespace hpcqc::load {
namespace {

sched::Qrm::Config fast_qrm_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kEstimateOnly;
  config.benchmark_overhead = minutes(2.0);
  return config;
}

TrafficConfig small_traffic(std::uint64_t seed) {
  TrafficConfig config;
  config.seed = seed;
  config.tenants = 50;
  config.duration = hours(2.0);
  config.base_rate_per_hour = 150.0;
  config.max_qubits = 12;
  config.max_shots = 4096;
  return config;
}

TEST(LoadGenerator, SameSeedSameSchedule) {
  const TrafficGenerator generator(small_traffic(42));
  const auto a = generator.generate();
  const auto b = generator.generate();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // A second generator from the same config is just as deterministic.
  const TrafficGenerator again(small_traffic(42));
  EXPECT_EQ(again.generate(), a);
}

TEST(LoadGenerator, DifferentSeedsProduceDifferentSchedules) {
  const auto a = TrafficGenerator(small_traffic(1)).generate();
  const auto b = TrafficGenerator(small_traffic(2)).generate();
  EXPECT_NE(a, b);
}

TEST(LoadGenerator, ScheduleIsOrderedTicketedAndInBounds) {
  const TrafficConfig config = small_traffic(7);
  const TrafficGenerator generator(config);
  const auto schedule = generator.generate();
  ASSERT_GT(schedule.size(), 100u);
  std::set<JobClass> classes;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& arrival = schedule[i];
    EXPECT_EQ(arrival.ticket, i);  // dense, monotone tickets
    if (i > 0) {
      EXPECT_GE(arrival.time, schedule[i - 1].time);
    }
    EXPECT_LT(arrival.time, config.duration);
    EXPECT_LT(arrival.tenant, config.tenants);
    EXPECT_GE(arrival.shots, config.min_shots);
    EXPECT_LE(arrival.shots, config.max_shots);
    EXPECT_GE(arrival.qubits, config.min_qubits);
    EXPECT_LE(arrival.qubits, config.max_qubits);
    classes.insert(arrival.job_class);
  }
  EXPECT_EQ(classes.size(), 4u);  // the whole mix shows up
}

TEST(LoadGenerator, DiurnalProfileModulatesTheRate) {
  TrafficConfig config = small_traffic(11);
  config.duration = hours(24.0);
  config.diurnal_amplitude = 0.8;
  const TrafficGenerator generator(config);
  EXPECT_GT(generator.rate_at(config.diurnal_peak),
            generator.rate_at(config.diurnal_peak + hours(12.0)));

  // Arrivals cluster around the peak: compare a 4 h window at the peak
  // against the 4 h window at the trough.
  const auto schedule = generator.generate();
  std::size_t peak = 0;
  std::size_t trough = 0;
  for (const Arrival& arrival : schedule) {
    if (std::abs(arrival.time - config.diurnal_peak) < hours(2.0)) ++peak;
    const Seconds trough_at = config.diurnal_peak + hours(12.0);
    if (std::abs(arrival.time - trough_at) < hours(2.0)) ++trough;
  }
  EXPECT_GT(peak, 2 * trough);
}

TEST(LoadGenerator, ZipfSkewsTenantsTowardTheHead) {
  const auto schedule = TrafficGenerator(small_traffic(23)).generate();
  std::size_t head = 0;
  for (const Arrival& arrival : schedule)
    if (arrival.tenant < 5) ++head;
  // With exponent 1.1 over 50 tenants, the top 5 carry well over a third.
  EXPECT_GT(head, schedule.size() / 3);
}

TEST(LoadGenerator, WeekendFactorQuietsDaysFiveAndSix) {
  TrafficConfig config = small_traffic(17);
  config.duration = days(14.0);
  config.base_rate_per_hour = 40.0;
  config.diurnal_amplitude = 0.0;  // isolate the weekly structure
  config.weekend_factor = 0.3;
  const TrafficGenerator generator(config);

  // t = 0 starts a Monday: the rate dips on days 5-6 of each week and is
  // back to baseline on day 7.
  EXPECT_DOUBLE_EQ(generator.rate_at(days(0.5)), 40.0);
  EXPECT_DOUBLE_EQ(generator.rate_at(days(5.5)), 12.0);
  EXPECT_DOUBLE_EQ(generator.rate_at(days(6.5)), 12.0);
  EXPECT_DOUBLE_EQ(generator.rate_at(days(7.5)), 40.0);
  EXPECT_DOUBLE_EQ(generator.rate_at(days(12.5)), 12.0);

  // The thinned schedule reflects it: weekend days carry far fewer
  // arrivals than weekdays.
  const auto schedule = generator.generate();
  ASSERT_GT(schedule.size(), 100u);
  std::size_t weekday = 0;
  std::size_t weekend = 0;
  for (const Arrival& arrival : schedule) {
    const int day = static_cast<int>(to_days(arrival.time)) % 7;
    (day == 5 || day == 6 ? weekend : weekday) += 1;
  }
  // 10 weekdays at rate 40 vs 4 weekend days at rate 12: expect the
  // weekday pile to dominate by far more than the 10/4 day ratio alone.
  EXPECT_GT(weekday, 5 * weekend);

  // Identical config replays identically; the default factor of 1.0
  // leaves the schedule on the legacy bytes (no weekly structure).
  EXPECT_EQ(TrafficGenerator(config).generate(), schedule);
  TrafficConfig flat = config;
  flat.weekend_factor = 1.0;
  EXPECT_DOUBLE_EQ(TrafficGenerator(flat).rate_at(days(5.5)), 40.0);
}

TEST(LoadGenerator, RejectsDegenerateConfigs) {
  const auto rejects = [](auto mutate) {
    TrafficConfig config;
    mutate(config);
    EXPECT_THROW(TrafficGenerator{config}, PermanentError);
  };
  rejects([](TrafficConfig& c) { c.tenants = 0; });
  rejects([](TrafficConfig& c) { c.base_rate_per_hour = 0.0; });
  rejects([](TrafficConfig& c) { c.diurnal_amplitude = 1.0; });
  rejects([](TrafficConfig& c) {
    c.ghz_weight = c.sampling_weight = c.vqe_weight = c.qaoa_weight = 0.0;
  });
  rejects([](TrafficConfig& c) { c.min_shots = 100; c.max_shots = 10; });
  rejects([](TrafficConfig& c) { c.weekend_factor = 0.0; });
  rejects([](TrafficConfig& c) { c.weekend_factor = -0.5; });
  rejects([](TrafficConfig& c) { c.high_fraction = 0.8; c.low_fraction = 0.5; });
}

LoadReport run_campaign(std::uint64_t seed, std::size_t threads) {
  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm qrm(device, fast_qrm_config(), rng);
  const TrafficGenerator traffic(small_traffic(seed));
  const JobFactory factory(device, traffic, seed);
  OpenLoopDriver::Config driver_config;
  driver_config.ingest_threads = threads;
  driver_config.slice = minutes(10.0);
  const OpenLoopDriver driver(driver_config);
  const LoadReport report = driver.run(qrm, factory, traffic.generate());
  sched::expect_ledger_matches_records(qrm);
  return report;
}

TEST(LoadCampaign, ReplaysBitIdenticallyAcrossRerunsAndThreadCounts) {
  const LoadReport base = run_campaign(5, 1);
  ASSERT_GT(base.offered, 100u);
  EXPECT_TRUE(base.conservation_ok);
  EXPECT_GT(base.completed, 0u);

  // Same seed, any ingest thread count, any rerun: one fingerprint. The
  // lock-free shards only move payloads; tickets restore canonical order.
  for (const std::size_t threads : {1u, 4u, 8u}) {
    const LoadReport replay = run_campaign(5, threads);
    EXPECT_EQ(replay.fingerprint, base.fingerprint) << threads << " threads";
    EXPECT_EQ(replay.completed, base.completed);
    EXPECT_EQ(replay.rejected, base.rejected);
    EXPECT_EQ(replay.queue_wait_p50, base.queue_wait_p50);
    EXPECT_EQ(replay.queue_wait_p99, base.queue_wait_p99);
    EXPECT_EQ(replay.tenants, base.tenants);
    EXPECT_TRUE(replay.conservation_ok);
  }
}

TEST(LoadCampaign, SeedChangesTheCampaign) {
  EXPECT_NE(run_campaign(5, 2).fingerprint, run_campaign(6, 2).fingerprint);
}

TEST(LoadCampaign, WaitPercentilesAreOrderedAndFinite) {
  const LoadReport report = run_campaign(9, 4);
  EXPECT_GE(report.queue_wait_p50, 0.0);
  EXPECT_GE(report.queue_wait_p99, report.queue_wait_p50);
  EXPECT_GT(report.makespan, 0.0);
}

/// A hand-built schedule: one flood tenant offering ~10x the device's
/// service capacity, plus small tenants trickling in alongside.
std::vector<Arrival> flood_schedule(std::size_t flood_jobs,
                                    std::size_t small_tenants,
                                    std::size_t jobs_each) {
  std::vector<Arrival> schedule;
  std::uint64_t ticket = 0;
  const Seconds window = hours(1.0);
  for (std::size_t k = 0; k < flood_jobs; ++k) {
    Arrival arrival;
    arrival.ticket = ticket++;
    arrival.time = window * static_cast<double>(k) /
                   static_cast<double>(flood_jobs);
    arrival.tenant = 0;
    arrival.job_class = JobClass::kGhz;
    arrival.qubits = 4;
    arrival.shots = 200;
    schedule.push_back(arrival);
  }
  for (std::size_t tenant = 1; tenant <= small_tenants; ++tenant) {
    for (std::size_t k = 0; k < jobs_each; ++k) {
      Arrival arrival;
      arrival.ticket = ticket++;
      arrival.time = window * (static_cast<double>(k) + 0.5) /
                     static_cast<double>(jobs_each);
      arrival.tenant = static_cast<std::uint32_t>(tenant);
      arrival.job_class = JobClass::kGhz;
      arrival.qubits = 4;
      arrival.shots = 200;
      schedule.push_back(arrival);
    }
  }
  // Arrival order (and ticket order with it) is what the gateway restores;
  // re-ticket after sorting by time so the two agree.
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Arrival& a, const Arrival& b) {
                     return a.time < b.time;
                   });
  for (std::size_t i = 0; i < schedule.size(); ++i) schedule[i].ticket = i;
  return schedule;
}

TEST(LoadFairness, FloodingTenantCannotStarveTheRest) {
  Rng rng(31);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm::Config config = fast_qrm_config();
  // Slow service (2 min/job => ~30 jobs/h capacity) so the 300-job flood
  // is a genuine 10x overload, and a fair-share cap of a quarter of the
  // 40-slot queue.
  config.job_overhead = minutes(2.0);
  config.admission.queue_capacity = 40;
  config.admission.max_tenant_queue_share = 0.25;
  sched::Qrm qrm(device, config, rng);

  TrafficConfig traffic_config;
  traffic_config.tenants = 9;
  const TrafficGenerator traffic(traffic_config);
  const JobFactory factory(device, traffic, 31);
  const auto schedule = flood_schedule(300, 8, 4);

  OpenLoopDriver::Config driver_config;
  driver_config.ingest_threads = 4;
  driver_config.slice = minutes(5.0);
  const OpenLoopDriver driver(driver_config);
  const LoadReport report = driver.run(qrm, factory, schedule);

  EXPECT_TRUE(report.conservation_ok);
  sched::expect_ledger_matches_records(qrm);
  const TenantOutcome& flood = report.tenants.at(factory.tenant_name(0));
  EXPECT_EQ(flood.offered, 300u);
  // The flood hits its fair share and bounces off it...
  EXPECT_GT(flood.rejected, 100u);
  // ...while every small tenant keeps landing and finishing work.
  for (std::uint32_t tenant = 1; tenant <= 8; ++tenant) {
    const TenantOutcome& outcome =
        report.tenants.at(factory.tenant_name(tenant));
    EXPECT_EQ(outcome.offered, 4u) << "tenant " << tenant;
    EXPECT_GE(outcome.completed, 1u) << "tenant " << tenant;
  }
}

TEST(LoadCampaign, ConservationHoldsUnderConcurrentSubmittersAtOverload) {
  Rng rng(37);
  device::DeviceModel device = device::make_iqm20(rng);
  sched::Qrm::Config config = fast_qrm_config();
  config.job_overhead = minutes(1.0);  // force overload rejections
  config.admission.queue_capacity = 32;
  sched::Qrm qrm(device, config, rng);

  TrafficConfig traffic_config = small_traffic(37);
  traffic_config.duration = hours(1.0);
  traffic_config.base_rate_per_hour = 400.0;
  const TrafficGenerator traffic(traffic_config);
  const JobFactory factory(device, traffic, 37);
  const auto schedule = traffic.generate();

  OpenLoopDriver::Config driver_config;
  driver_config.ingest_threads = 8;
  driver_config.slice = minutes(5.0);
  const OpenLoopDriver driver(driver_config);
  const LoadReport report = driver.run(qrm, factory, schedule);

  // Every offer reached exactly one auditable terminal record: nothing
  // dropped on the lock-free path, nothing double-admitted.
  EXPECT_EQ(report.offered, schedule.size());
  const sched::JobConservation audit = qrm.conservation();
  EXPECT_TRUE(audit.holds());
  EXPECT_EQ(audit.submitted, schedule.size());
  EXPECT_EQ(audit.in_flight, 0u);
  sched::expect_ledger_matches_records(qrm);
  EXPECT_GT(report.rejected, 0u);  // it really was overloaded
  EXPECT_EQ(report.admitted + report.rejected, report.offered);
}

}  // namespace
}  // namespace hpcqc::load
