#include <gtest/gtest.h>

#include "hpcqc/common/error.hpp"
#include "hpcqc/ops/campaign.hpp"
#include "hpcqc/ops/recovery.hpp"

namespace hpcqc::ops {
namespace {

TEST(Recovery, RequiresCoolingRestored) {
  cryo::Cryostat cryostat;
  cryostat.set_cooling(false);
  Rng rng(1);
  device::DeviceModel device = device::make_iqm20(rng);
  const RecoveryProcedure procedure;
  EXPECT_THROW(procedure.execute(cryostat, device, hours(1.0), rng),
               StateError);
}

TEST(Recovery, SmallExcursionUsesQuickCalibration) {
  // Cooling lost for 60 s: stays under 1 K, calibration preserved.
  cryo::Cryostat cryostat;
  cryostat.set_cooling(false);
  cryostat.step(seconds(60.0));
  cryostat.set_cooling(true);

  Rng rng(2);
  device::DeviceModel device = device::make_iqm20(rng);
  RecoveryProcedure::Params params;
  params.benchmark.qubits = 8;
  params.benchmark.analytic = true;
  const RecoveryProcedure procedure(params);
  const auto report =
      procedure.execute(cryostat, device, minutes(30.0), rng);

  EXPECT_TRUE(report.calibration_preserved);
  EXPECT_EQ(report.calibration_used, calibration::CalibrationKind::kQuick);
  EXPECT_NEAR(to_minutes(report.calibration), 40.0, 1e-9);
  EXPECT_LT(to_hours(report.cooldown), 12.0);
  EXPECT_GT(report.post_recovery_ghz, 0.4);
}

TEST(Recovery, DeepWarmupNeedsFullCalibrationAndDays) {
  // Cooling lost for two days: the QPU warms far past 1 K.
  cryo::Cryostat cryostat;
  cryostat.set_cooling(false);
  cryostat.step(days(2.0));
  EXPECT_GT(cryostat.temperature(), 10.0);
  cryostat.set_cooling(true);

  Rng rng(3);
  device::DeviceModel device = device::make_iqm20(rng);
  RecoveryProcedure::Params params;
  params.thermal_step = minutes(15.0);
  params.benchmark.qubits = 8;
  params.benchmark.analytic = true;
  const RecoveryProcedure procedure(params);
  const auto report = procedure.execute(cryostat, device, hours(4.0), rng);

  EXPECT_FALSE(report.calibration_preserved);
  EXPECT_EQ(report.calibration_used, calibration::CalibrationKind::kFull);
  EXPECT_NEAR(to_minutes(report.calibration), 100.0, 1e-9);
  // §3.5: cooldown two to five days.
  EXPECT_GE(to_days(report.cooldown), 1.5);
  EXPECT_LE(to_days(report.cooldown), 5.0);
  EXPECT_GT(report.total(), report.cooldown);
  // Peak tracker reset after recovery.
  EXPECT_TRUE(cryostat.calibration_preserved());
}

CampaignConfig short_campaign(Seconds duration) {
  CampaignConfig config;
  config.duration = duration;
  config.seed = 5;
  config.workload.jobs_per_hour = 1.0;
  config.workload.duration = duration;
  return config;
}

TEST(Campaign, TwoWeeksOfCleanOperation) {
  OperationsCampaign campaign(short_campaign(days(14.0)));
  const auto result = campaign.run();
  EXPECT_EQ(result.daily.size(), 14u);
  EXPECT_GT(result.uptime_fraction, 0.9);
  EXPECT_GT(campaign.qrm()
                .metrics_registry()
                .snapshot()
                .counter("qrm.jobs_completed")
                ->value,
            100.0);
  EXPECT_GT(result.quick_calibrations + result.full_calibrations, 3u);
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_GE(result.ln2_refills, 1u);
  // Fidelities stay in a healthy band every single day.
  for (const auto& day : result.daily) {
    EXPECT_GT(day.median_fidelity_1q, 0.995) << "day " << day.day;
    EXPECT_GT(day.median_fidelity_cz, 0.98) << "day " << day.day;
    EXPECT_GT(day.median_readout_fidelity, 0.93) << "day " << day.day;
  }
}

TEST(Campaign, TelemetryAndLogsArePopulated) {
  OperationsCampaign campaign(short_campaign(days(5.0)));
  campaign.run();
  const auto& store = campaign.store();
  EXPECT_TRUE(store.has_sensor("cryo.mxc_temperature_k"));
  EXPECT_TRUE(store.has_sensor("qpu.median_fidelity_1q"));
  EXPECT_TRUE(store.has_sensor("qpu.status"));
  EXPECT_GT(store.total_samples(), 1000u);
  EXPECT_FALSE(campaign.log().records().empty());
  // The fidelity telemetry matches the final device state.
  EXPECT_NEAR(store.latest("qpu.median_fidelity_1q")->value,
              campaign.device().calibration().median_fidelity_1q(), 0.01);
}

TEST(Campaign, CleanRunRaisesOnlyRoutineAlerts) {
  OperationsCampaign campaign(short_campaign(days(10.0)));
  const auto result = campaign.run();
  // LN2 dips below the alert level weekly before the top-up; no thermal or
  // water alerts in a clean run.
  EXPECT_LE(result.alerts_raised, 4u);
  for (const auto& event : campaign.alerts().history()) {
    if (event.raised) {
      EXPECT_EQ(event.rule, "ln2-trap-low") << "unexpected " << event.rule;
    }
  }
}

TEST(Campaign, CoolingOutageCausesRecoveryWithFullCalibration) {
  CampaignConfig config = short_campaign(days(12.0));
  config.outages.push_back(
      {days(4.0), OutageEvent::Kind::kCoolingFailure, hours(5.0)});
  OperationsCampaign campaign(config);
  const auto result = campaign.run();
  // The outage shows up in the alert stream: hot water and a warm QPU.
  bool water_alert = false;
  bool warm_alert = false;
  for (const auto& event : campaign.alerts().history()) {
    if (!event.raised) continue;
    water_alert |= event.rule == "water-over-temperature";
    warm_alert |= event.rule == "qpu-warm";
  }
  EXPECT_TRUE(water_alert);
  EXPECT_TRUE(warm_alert);
  EXPECT_GE(result.alerts_raised, 2u);
  ASSERT_EQ(result.recoveries.size(), 1u);
  const auto& recovery = result.recoveries.front();
  EXPECT_FALSE(recovery.calibration_preserved);
  EXPECT_EQ(recovery.calibration_used, calibration::CalibrationKind::kFull);
  EXPECT_GT(recovery.peak_temperature, 1.0);
  EXPECT_GE(to_days(recovery.cooldown), 1.0);
  // Days of downtime show up in the uptime fraction.
  EXPECT_LT(result.uptime_fraction, 0.9);
  EXPECT_GT(result.uptime_fraction, 0.5);
}

TEST(Campaign, RedundantCoolingPreventsTheOutage) {
  CampaignConfig config = short_campaign(days(12.0));
  config.outages.push_back(
      {days(4.0), OutageEvent::Kind::kCoolingFailure, hours(5.0)});
  config.redundant_cooling = true;
  OperationsCampaign campaign(config);
  const auto result = campaign.run();
  // Lesson 3: with a redundant chiller the failover keeps the water in
  // spec, the pumps never trip, and no thermal recovery happens.
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_GT(result.uptime_fraction, 0.95);
}

TEST(Campaign, ShortPowerCutRidesThroughOnUps) {
  CampaignConfig config = short_campaign(days(10.0));
  // 20-minute grid event: inside the UPS ride-through window.
  config.outages.push_back(
      {days(3.0), OutageEvent::Kind::kPowerCut, minutes(20.0)});
  OperationsCampaign campaign(config);
  const auto result = campaign.run();
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_GT(result.uptime_fraction, 0.95);
}

TEST(Campaign, LongPowerCutDepletesUpsAndForcesRecovery) {
  CampaignConfig config = short_campaign(days(12.0));
  config.outages.push_back(
      {days(3.0), OutageEvent::Kind::kPowerCut, hours(3.0)});
  OperationsCampaign campaign(config);
  const auto result = campaign.run();
  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_FALSE(result.recoveries.front().calibration_preserved);
}

TEST(Campaign, MaintenanceWindowHappensOnSchedule) {
  CampaignConfig config = short_campaign(days(30.0));
  config.maintenance_period = days(20.0);
  OperationsCampaign campaign(config);
  const auto result = campaign.run();
  EXPECT_EQ(result.maintenance_windows, 1u);
  EXPECT_EQ(result.maintenance_deferrals, 0u);
  // Maintenance costs about a day of availability but is not a recovery.
  EXPECT_TRUE(result.recoveries.empty());
  EXPECT_LT(result.uptime_fraction, 0.99);
}

TEST(Campaign, MaintenanceDueDuringOutageIsDeferredNotDropped) {
  // The first window comes due at day 4, half a day into a cooling outage
  // whose recovery (warm-up, cooldown, full recalibration) holds the QPU
  // out of service for days. The window must be counted as deferred and
  // run once the QPU returns — never silently dropped.
  CampaignConfig config = short_campaign(days(20.0));
  config.maintenance_period = days(4.0);
  config.outages.push_back(
      {days(3.5), OutageEvent::Kind::kCoolingFailure, hours(5.0)});
  OperationsCampaign campaign(config);
  const auto result = campaign.run();

  ASSERT_EQ(result.recoveries.size(), 1u);
  EXPECT_GE(result.maintenance_deferrals, 1u);
  EXPECT_GE(result.maintenance_windows, 2u);
  // Deferred windows re-anchor the schedule on their actual start: no
  // back-to-back catch-up burst after the outage clears.
  EXPECT_LE(result.maintenance_windows, 5u);
}

TEST(Campaign, RejectsBadConfig) {
  CampaignConfig config;
  config.duration = 0.0;
  EXPECT_THROW(OperationsCampaign{config}, PreconditionError);
}

}  // namespace
}  // namespace hpcqc::ops
