// 146-day autonomous operations campaign (§3, Figure 4).
//
// Simulates five months of unattended daily operation: calibration drift
// and TLS defect events, the automated scheduler-controlled recalibration
// loop, periodic GHZ health benchmarks, DCDB-style telemetry, a user
// workload, weekly LN2 top-ups, a preventive-maintenance window and one
// injected cooling outage with the full §3.5 recovery sequence.
// Writes Fig-4-style daily fidelity medians to ops_campaign_fig4.csv.

#include <fstream>
#include <iomanip>
#include <iostream>

#include "hpcqc/common/stats.hpp"
#include "hpcqc/ops/campaign.hpp"
#include "hpcqc/telemetry/health.hpp"

int main() {
  using namespace hpcqc;

  ops::CampaignConfig config;
  config.duration = days(146.0);
  config.seed = 20;
  config.workload.jobs_per_hour = 1.5;
  config.workload.duration = config.duration;
  // One cooling failure in month three, repaired after six hours.
  config.outages.push_back(
      {days(74.0), ops::OutageEvent::Kind::kCoolingFailure, hours(6.0)});

  ops::OperationsCampaign campaign(config);
  const auto result = campaign.run();

  std::cout << "=== 146-day autonomous operations campaign ===\n";
  std::cout << std::fixed << std::setprecision(4);
  std::cout << "Uptime fraction:          " << result.uptime_fraction << "\n";
  const obs::MetricsSnapshot metrics =
      campaign.qrm().metrics_registry().snapshot("qrm.");
  const auto count = [&metrics](const char* name) {
    return static_cast<std::uint64_t>(metrics.counter(name)->value);
  };
  std::cout << "Jobs completed:           " << count("qrm.jobs_completed")
            << " (" << count("qrm.total_shots") << " shots)\n";
  std::cout << "Quick recalibrations:     " << result.quick_calibrations
            << " (40 min each)\n";
  std::cout << "Full recalibrations:      " << result.full_calibrations
            << " (100 min each)\n";
  std::cout << "Time spent calibrating:   "
            << to_hours(metrics.counter("qrm.calibration_time_s")->value)
            << " h of "
            << to_days(config.duration) << " days\n";
  std::cout << "LN2 top-ups (on-site):    " << result.ln2_refills << "\n";
  std::cout << "Maintenance windows:      " << result.maintenance_windows
            << "\n";
  std::cout << "Thermal recoveries:       " << result.recoveries.size()
            << "\n";
  for (const auto& recovery : result.recoveries) {
    std::cout << "  peak " << recovery.peak_temperature << " K -> "
              << to_string(recovery.calibration_used)
              << " recalibration, cooldown "
              << to_days(recovery.cooldown) << " days\n";
  }

  // Fig.-4 style summary: first / mid / last month medians.
  const auto& daily = result.daily;
  const auto month_median = [&](std::size_t from, std::size_t to,
                                auto getter) {
    std::vector<double> values;
    for (std::size_t d = from; d < std::min(to, daily.size()); ++d)
      values.push_back(getter(daily[d]));
    return median(values);
  };
  std::cout << "\nDaily median fidelities (Fig. 4 shape):\n";
  std::cout << "                      days 1-30   days 60-90  days 116-146\n";
  const auto row = [&](const char* name, auto getter) {
    std::cout << std::left << std::setw(22) << name << std::setprecision(4)
              << month_median(0, 30, getter) << "      "
              << month_median(60, 90, getter) << "      "
              << month_median(115, 146, getter) << "\n";
  };
  row("single-qubit gate", [](const ops::DailyRecord& r) {
    return r.median_fidelity_1q;
  });
  row("CZ (two-qubit gate)", [](const ops::DailyRecord& r) {
    return r.median_fidelity_cz;
  });
  row("readout", [](const ops::DailyRecord& r) {
    return r.median_readout_fidelity;
  });

  std::ofstream csv("ops_campaign_fig4.csv");
  csv << "day,median_f1q,median_fcz,median_readout,ghz,online\n";
  for (const auto& record : daily)
    csv << record.day << ',' << record.median_fidelity_1q << ','
        << record.median_fidelity_cz << ',' << record.median_readout_fidelity
        << ',' << record.latest_ghz_success << ',' << record.online << '\n';
  std::cout << "\nWrote per-day series to ops_campaign_fig4.csv ("
            << daily.size() << " days)\n";
  std::cout << "Telemetry store holds " << campaign.store().total_samples()
            << " samples across " << campaign.store().sensors().size()
            << " sensors\n\n";

  // Operational analytics over the recorded telemetry (Fig. 3's "advanced
  // operational analytics" layer): per-qubit health at campaign end.
  const telemetry::HealthAnalyzer analyzer;
  analyzer.analyze(campaign.store(), campaign.device().num_qubits(),
                   config.duration)
      .print(std::cout);
  return 0;
}
