// Reproduces **Figure 4**: "Autonomous calibration performance over 146
// days ... showing consistent single-qubit gate fidelity, readout fidelity
// and CZ fidelity (two-qubit gate) over time", with "more than 100 days of
// continuous operation without human intervention in calibration".
//
// We run the full daily-operations simulation (drift + TLS events +
// scheduler-controlled automated recalibration + user workload) for 146
// days and print the three fidelity series, downsampled weekly. Expected
// shape: all three series flat across the window, 1Q ~0.999, CZ ~0.993,
// readout ~0.97, with no widening trend — calibration is holding the
// machine at its working point unattended.

#include <benchmark/benchmark.h>

#include <iostream>

#include "hpcqc/common/stats.hpp"
#include "hpcqc/common/table.hpp"
#include "hpcqc/ops/campaign.hpp"

namespace {

using namespace hpcqc;

ops::CampaignConfig fig4_config() {
  ops::CampaignConfig config;
  config.duration = days(146.0);
  config.seed = 4;
  config.workload.jobs_per_hour = 1.5;
  return config;
}

void print_reproduction() {
  std::cout << "=== Figure 4: autonomous calibration over 146 days ===\n\n";
  ops::OperationsCampaign campaign(fig4_config());
  const auto result = campaign.run();

  Table table({"Week", "1Q gate fidelity", "CZ fidelity",
               "Readout fidelity", "GHZ health"});
  for (std::size_t week = 0; week * 7 < result.daily.size(); ++week) {
    std::vector<double> f1q;
    std::vector<double> fcz;
    std::vector<double> ro;
    std::vector<double> ghz;
    for (std::size_t d = week * 7;
         d < std::min(result.daily.size(), (week + 1) * 7); ++d) {
      f1q.push_back(result.daily[d].median_fidelity_1q);
      fcz.push_back(result.daily[d].median_fidelity_cz);
      ro.push_back(result.daily[d].median_readout_fidelity);
      ghz.push_back(result.daily[d].latest_ghz_success);
    }
    table.add_row({std::to_string(week + 1), Table::num(median(f1q), 5),
                   Table::num(median(fcz), 5), Table::num(median(ro), 5),
                   Table::num(median(ghz), 3)});
  }
  table.print(std::cout);

  // Stability statistics over the full window.
  std::vector<double> f1q_series;
  std::vector<double> fcz_series;
  std::vector<double> ro_series;
  for (const auto& day : result.daily) {
    f1q_series.push_back(day.median_fidelity_1q);
    fcz_series.push_back(day.median_fidelity_cz);
    ro_series.push_back(day.median_readout_fidelity);
  }
  std::cout << "\nSeries medians (paper: 1Q ~0.999, CZ ~0.995, RO ~0.98):\n"
            << "  1Q      median " << Table::num(median(f1q_series), 5)
            << "  sd " << Table::num(stddev(f1q_series), 5) << '\n'
            << "  CZ      median " << Table::num(median(fcz_series), 5)
            << "  sd " << Table::num(stddev(fcz_series), 5) << '\n'
            << "  readout median " << Table::num(median(ro_series), 5)
            << "  sd " << Table::num(stddev(ro_series), 5) << "\n\n";

  const obs::MetricsSnapshot metrics =
      campaign.qrm().metrics_registry().snapshot("qrm.");
  std::cout << "Operation summary over " << result.daily.size() << " days:\n"
            << "  uptime fraction        " << Table::num(result.uptime_fraction, 4)
            << "\n  quick recalibrations   " << result.quick_calibrations
            << " (40 min each)\n  full recalibrations    "
            << result.full_calibrations
            << " (100 min each)\n  calibration overhead   "
            << Table::num(100.0 *
                              metrics.counter("qrm.calibration_time_s")->value /
                              days(146.0), 2)
            << " % of wall time\n  jobs completed         "
            << static_cast<std::uint64_t>(
                   metrics.counter("qrm.jobs_completed")->value)
            << "\n  human interventions    " << result.recoveries.size()
            << " (calibration ran unattended)\n\n";
}

void BM_CampaignDay(benchmark::State& state) {
  // Cost of simulating one day of operations (drift + QRM + telemetry).
  for (auto _ : state) {
    ops::CampaignConfig config = fig4_config();
    config.duration = days(static_cast<double>(state.range(0)));
    config.workload.duration = config.duration;
    ops::OperationsCampaign campaign(config);
    benchmark::DoNotOptimize(campaign.run());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CampaignDay)->Arg(7)->Arg(30)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
