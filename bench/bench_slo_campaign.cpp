// Measures what a year of service simulation costs and records the SLO
// headline numbers the nightly report tracks: fleet availability, p99
// turnaround, error-budget consumption, and offered-job throughput of the
// campaign driver itself.
//
// Expected shape: the driver is linear in steps x devices plus the
// per-arrival submit cost — a week of simulated service over three devices
// runs in well under a second, a full year in about 2.6 s (RelWithDebInfo,
// 4-vCPU host), dominated by the per-step supervisor/fleet advance rather
// than by the SLO accounting (burn windows sweep only unresolved tickets,
// the per-step conservation sensor reads an O(1) ledger, and the final
// per-tenant pass is one walk over the schedule).

#include <benchmark/benchmark.h>

#include "bench_json.hpp"

#include <iostream>

#include "hpcqc/common/table.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/ops/service_campaign.hpp"

namespace {

using namespace hpcqc;

ops::ServiceCampaignConfig campaign_config(double horizon_days) {
  ops::ServiceCampaignConfig config;
  config.horizon = days(horizon_days);
  config.maintenance_period = days(2.0);
  config.maintenance_duration = hours(4.0);
  fault::FaultEvent trip;
  trip.at = hours(30.0);
  trip.site = fault::FaultSite::kCryoPlantTrip;
  trip.duration = hours(2.0);
  trip.description = "compressor seizure on the shared cryo plant";
  trip.devices = {0, 1, 2};
  config.scheduled_fleet_faults.add(trip);
  return config;
}

void print_reproduction() {
  std::cout << "=== Service campaign SLO report (7-day slice) ===\n\n";
  ops::ServiceCampaign campaign(campaign_config(7.0));
  campaign.run().print(std::cout);
  std::cout << "\n";
}

void BM_ServiceCampaignWeek(benchmark::State& state) {
  // One full 7-day campaign per iteration: fleet + supervisor construction,
  // 672 coordination steps, final drain and report assembly.
  for (auto _ : state) {
    ops::ServiceCampaign campaign(campaign_config(7.0));
    const ops::ServiceCampaignResult result = campaign.run();
    benchmark::DoNotOptimize(result.fingerprint);
    state.counters["jobs"] = static_cast<double>(result.offered);
    state.counters["fleet_availability"] = result.fleet_availability;
    state.counters["p99_turnaround_s"] = result.p99_turnaround;
    state.counters["budget_consumed"] = result.fleet_budget.consumed();
    state.counters["conservation_ok"] =
        result.conservation.holds() && result.conservation.in_flight == 0
            ? 1.0
            : 0.0;
  }
}
BENCHMARK(BM_ServiceCampaignWeek)->Iterations(3)->Unit(benchmark::kMillisecond);

void BM_ServiceCampaignQuarter(benchmark::State& state) {
  // A 91-day quarter with the default (uncompressed) maintenance cadence:
  // the scaling point between the CI smoke and the nightly full year.
  for (auto _ : state) {
    ops::ServiceCampaignConfig config;
    config.horizon = days(91.0);
    ops::ServiceCampaign campaign(std::move(config));
    const ops::ServiceCampaignResult result = campaign.run();
    benchmark::DoNotOptimize(result.fingerprint);
    state.counters["jobs"] = static_cast<double>(result.offered);
    state.counters["fleet_availability"] = result.fleet_availability;
    state.counters["p99_turnaround_s"] = result.p99_turnaround;
    state.counters["conservation_ok"] =
        result.conservation.holds() && result.conservation.in_flight == 0
            ? 1.0
            : 0.0;
  }
}
BENCHMARK(BM_ServiceCampaignQuarter)
    ->Iterations(1)
    ->Unit(benchmark::kSecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  return hpcqc::bench::run_with_json(argc, argv, "BENCH_slo_campaign.json");
}
