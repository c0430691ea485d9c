// End-to-end observability: every QRM terminal state must leave one
// complete, connected span tree; failure terminal states must produce a
// flight-recorder post-mortem; the client/service path must trace compile
// (with per-pass children) and execute; and the whole pipeline — traces,
// metrics, exports — must replay bit-identically across reruns and
// OMP_NUM_THREADS.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "hpcqc/calibration/benchmark.hpp"
#include "hpcqc/device/presets.hpp"
#include "hpcqc/fault/fault_plan.hpp"
#include "hpcqc/fault/injector.hpp"
#include "hpcqc/mqss/service.hpp"
#include "hpcqc/obs/export.hpp"
#include "hpcqc/obs/flight_recorder.hpp"
#include "hpcqc/obs/metrics.hpp"
#include "hpcqc/obs/trace.hpp"
#include "hpcqc/qdmi/model_device.hpp"
#include "hpcqc/sched/qrm.hpp"
#include "hpcqc/telemetry/obs_bridge.hpp"
#include "hpcqc/telemetry/store.hpp"

namespace hpcqc {
namespace {

sched::Qrm::Config traced_config() {
  sched::Qrm::Config config;
  config.benchmark.qubits = 8;
  config.benchmark.shots = 200;
  config.benchmark.analytic = true;
  config.execution_mode = device::ExecutionMode::kGlobalDepolarizing;
  return config;
}

sched::QuantumJob ghz_job(const device::DeviceModel& device, int qubits,
                          std::size_t shots, const std::string& name) {
  sched::QuantumJob job;
  job.name = name;
  job.circuit = calibration::GhzBenchmark::chain_circuit(device, qubits);
  job.shots = shots;
  return job;
}

/// QRM + tracer + flight recorder wired the way the drill does it.
class TracedQrmTest : public ::testing::Test {
protected:
  TracedQrmTest()
      : rng_(21),
        device_(device::make_iqm20(rng_)),
        qrm_(device_, traced_config(), rng_, &log_) {
    tracer_.set_flight_recorder(&recorder_);
    qrm_.set_tracer(&tracer_);
  }

  /// Spans of the job's trace, in creation order.
  std::vector<const obs::SpanRecord*> job_trace(int id) const {
    return tracer_.trace(qrm_.record(id).trace.trace_id);
  }

  static const obs::SpanRecord* find_span(
      const std::vector<const obs::SpanRecord*>& spans,
      const std::string& name) {
    for (const auto* span : spans)
      if (span->name == name) return span;
    return nullptr;
  }

  static bool has_event(const obs::SpanRecord& span, const std::string& name) {
    return std::any_of(span.events.begin(), span.events.end(),
                       [&](const obs::SpanEvent& e) { return e.name == name; });
  }

  Rng rng_;
  device::DeviceModel device_;
  EventLog log_;
  obs::Tracer tracer_;
  obs::FlightRecorder recorder_;
  sched::Qrm qrm_;
};

TEST_F(TracedQrmTest, CompletedJobYieldsOneConnectedTree) {
  const int id = qrm_.submit(ghz_job(device_, 4, 500, "alpha"));
  qrm_.drain();
  ASSERT_EQ(qrm_.record(id).state, sched::QuantumJobState::kCompleted);

  const auto spans = job_trace(id);
  const auto* root = find_span(spans, "job:alpha");
  const auto* admission = find_span(spans, "admission");
  const auto* queue = find_span(spans, "queue-wait");
  const auto* attempt = find_span(spans, "attempt-1");
  const auto* execute = find_span(spans, "execute");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(admission, nullptr);
  ASSERT_NE(queue, nullptr);
  ASSERT_NE(attempt, nullptr);
  ASSERT_NE(execute, nullptr);

  // Connected: admission and queue-wait and attempt hang off the root, the
  // execute span off the attempt; everything closed, everything kOk.
  EXPECT_EQ(admission->parent, root->handle);
  EXPECT_EQ(queue->parent, root->handle);
  EXPECT_EQ(attempt->parent, root->handle);
  EXPECT_EQ(execute->parent, attempt->handle);
  for (const auto* span : spans) {
    EXPECT_FALSE(span->open()) << span->name;
    EXPECT_EQ(span->status, obs::SpanStatus::kOk) << span->name;
    EXPECT_EQ(span->trace_id, root->trace_id) << span->name;
  }

  // The stages tile the job's lifetime on the simulated clock.
  EXPECT_DOUBLE_EQ(root->start, qrm_.record(id).submit_time);
  EXPECT_DOUBLE_EQ(root->end, qrm_.record(id).end_time);
  EXPECT_DOUBLE_EQ(queue->end, qrm_.record(id).start_time);
  EXPECT_GE(execute->start, attempt->start);

  // Execute carries the per-batch progress events (500 shots / 64 per
  // batch = 8) and the fidelity annotation; root carries the job metadata.
  EXPECT_EQ(execute->events.size(), 8u);
  EXPECT_TRUE(has_event(*execute, "shot-batch-0"));
  EXPECT_NE(execute->attribute("estimated_fidelity"), nullptr);
  ASSERT_NE(root->attribute("shots"), nullptr);
  EXPECT_EQ(*root->attribute("shots"), "500");

  // A completed job is not an incident: no post-mortem.
  EXPECT_TRUE(recorder_.post_mortems().empty());
  EXPECT_EQ(tracer_.open_spans(), 0u);
}

TEST_F(TracedQrmTest, RejectedOverloadTreeEndsAtAdmission) {
  sched::Qrm::Config config = traced_config();
  config.admission.queue_capacity = 2;
  sched::Qrm qrm(device_, config, rng_, &log_);
  qrm.set_tracer(&tracer_);
  qrm.set_offline("hold the queue");

  qrm.submit(ghz_job(device_, 4, 500, "a"));
  qrm.submit(ghz_job(device_, 4, 500, "b"));
  const int rejected = qrm.submit(ghz_job(device_, 4, 500, "c"));
  ASSERT_EQ(qrm.record(rejected).state,
            sched::QuantumJobState::kRejectedOverload);

  const auto spans = tracer_.trace(qrm.record(rejected).trace.trace_id);
  ASSERT_EQ(spans.size(), 2u);  // root + admission, nothing ever queued
  const auto* root = find_span(spans, "job:c");
  const auto* admission = find_span(spans, "admission");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(root->status, obs::SpanStatus::kError);
  EXPECT_EQ(admission->status, obs::SpanStatus::kError);
  EXPECT_TRUE(has_event(*admission, "refused"));

  ASSERT_EQ(recorder_.post_mortems().size(), 1u);
  EXPECT_NE(recorder_.post_mortems()[0].reason.find("rejected-overload"),
            std::string::npos);
  qrm.set_online();
  qrm.drain();
}

TEST_F(TracedQrmTest, RejectedTooWideTreeNamesTheRefusal) {
  const auto chain = device_.topology().coupled_chain();
  const circuit::Circuit wide =
      calibration::GhzBenchmark::chain_circuit(device_, device_.num_qubits());
  device_.set_qubit_health(chain[1], false);
  const int id = qrm_.submit(ghz_job(device_, 4, 1, "narrow-placeholder"));
  sched::QuantumJob job;
  job.name = "wide";
  job.circuit = wide;
  job.shots = 100;
  const int rejected = qrm_.submit(std::move(job));
  ASSERT_EQ(qrm_.record(rejected).state,
            sched::QuantumJobState::kRejectedTooWide);

  const auto spans = job_trace(rejected);
  const auto* admission = find_span(spans, "admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->status, obs::SpanStatus::kError);
  EXPECT_TRUE(has_event(*admission, "refused"));
  ASSERT_EQ(recorder_.post_mortems().size(), 1u);
  EXPECT_NE(recorder_.post_mortems()[0].reason.find("rejected-too-wide"),
            std::string::npos);

  device_.set_qubit_health(chain[1], true);
  qrm_.drain();
  EXPECT_EQ(qrm_.record(id).state, sched::QuantumJobState::kCompleted);
}

TEST_F(TracedQrmTest, ShedJobTreeEndsInTheQueue) {
  sched::Qrm::Config config = traced_config();
  config.job_overhead = minutes(10.0);
  config.admission.brownout_wait_limit = minutes(25.0);
  sched::Qrm qrm(device_, config, rng_, &log_);
  qrm.set_tracer(&tracer_);
  qrm.set_offline("hold the queue");

  sched::QuantumJob low = ghz_job(device_, 4, 500, "victim");
  low.priority = sched::JobPriority::kLow;
  const int shed = qrm.submit(std::move(low));
  qrm.submit(ghz_job(device_, 4, 500, "b"));
  qrm.submit(ghz_job(device_, 4, 500, "c"));
  ASSERT_EQ(qrm.record(shed).state, sched::QuantumJobState::kShed);

  const auto spans = tracer_.trace(qrm.record(shed).trace.trace_id);
  const auto* root = find_span(spans, "job:victim");
  const auto* queue = find_span(spans, "queue-wait");
  ASSERT_NE(root, nullptr);
  ASSERT_NE(queue, nullptr);
  // Admitted (admission kOk), then shed from the queue: the queue span and
  // the root both end in error, and no attempt span was ever opened.
  EXPECT_EQ(find_span(spans, "admission")->status, obs::SpanStatus::kOk);
  EXPECT_EQ(queue->status, obs::SpanStatus::kError);
  EXPECT_TRUE(has_event(*queue, "shed"));
  EXPECT_EQ(root->status, obs::SpanStatus::kError);
  EXPECT_EQ(find_span(spans, "attempt-1"), nullptr);

  ASSERT_EQ(recorder_.post_mortems().size(), 1u);
  EXPECT_EQ(recorder_.post_mortems()[0].reason, "shed: brownout");
  qrm.set_online();
  qrm.drain();
}

TEST_F(TracedQrmTest, DeadLetterTreeShowsEveryAttemptAndDumpsOnFailure) {
  std::ostringstream incident;
  recorder_.set_dump_sink(&incident);

  qrm_.advance_to(minutes(10.0));
  fault::FaultPlan plan;
  plan.add({minutes(10.0), fault::FaultSite::kDeviceExecution, hours(3.0),
            "persistent abort"});
  fault::FaultInjector injector(plan);
  qrm_.set_fault_injector(&injector);

  const int id = qrm_.submit(ghz_job(device_, 4, 500, "doomed"));
  qrm_.drain();
  ASSERT_EQ(qrm_.record(id).state, sched::QuantumJobState::kFailed);
  ASSERT_EQ(qrm_.record(id).attempts, 3u);

  const auto spans = job_trace(id);
  // Three attempts each with an execute child ending in an execution-fault
  // event, two retry-backoff spans between them, everything closed.
  std::size_t attempts = 0, backoffs = 0, faults = 0;
  for (const auto* span : spans) {
    EXPECT_FALSE(span->open()) << span->name;
    if (span->name.rfind("attempt-", 0) == 0) {
      ++attempts;
      EXPECT_EQ(span->status, obs::SpanStatus::kError) << span->name;
    }
    if (span->name == "retry-backoff") ++backoffs;
    if (span->name == "execute" && has_event(*span, "execution-fault"))
      ++faults;
  }
  EXPECT_EQ(attempts, 3u);
  EXPECT_EQ(backoffs, 2u);
  EXPECT_EQ(faults, 3u);
  EXPECT_EQ(find_span(spans, "job:doomed")->status, obs::SpanStatus::kError);

  // The failure auto-dumped a post-mortem into the sink.
  ASSERT_EQ(recorder_.post_mortems().size(), 1u);
  const obs::PostMortem& pm = recorder_.post_mortems()[0];
  EXPECT_NE(pm.reason.find("dead-letter"), std::string::npos);
  EXPECT_FALSE(pm.spans.empty());
  EXPECT_NE(incident.str().find("dead-letter"), std::string::npos);
  EXPECT_NE(incident.str().find("retry-backoff"), std::string::npos);
}

TEST_F(TracedQrmTest, DegradedHoldIsVisibleOnTheQueueSpan) {
  const auto chain = device_.topology().coupled_chain();
  const int held = qrm_.submit(ghz_job(device_, 4, 500, "held"));
  device_.set_qubit_health(chain[1], false);
  const int healthy = qrm_.submit(ghz_job(device_, 4, 500, "mobile"));

  qrm_.advance_to(hours(1.0));
  ASSERT_EQ(qrm_.record(healthy).state, sched::QuantumJobState::kCompleted);
  ASSERT_EQ(qrm_.record(held).state, sched::QuantumJobState::kQueued);

  device_.set_qubit_health(chain[1], true);
  qrm_.drain();
  ASSERT_EQ(qrm_.record(held).state, sched::QuantumJobState::kCompleted);

  const auto spans = job_trace(held);
  const auto* queue = find_span(spans, "queue-wait");
  ASSERT_NE(queue, nullptr);
  EXPECT_TRUE(has_event(*queue, "degraded-hold"));
  ASSERT_NE(queue->attribute("degraded_hold_scans"), nullptr);
  EXPECT_GT(std::stoul(*queue->attribute("degraded_hold_scans")), 0u);
  EXPECT_EQ(find_span(spans, "job:held")->status, obs::SpanStatus::kOk);
  EXPECT_TRUE(recorder_.post_mortems().empty());  // a hold is not a failure
}

TEST_F(TracedQrmTest, TelemetryBridgeReExportsTheRegistry) {
  qrm_.submit(ghz_job(device_, 4, 500, "a"));
  qrm_.submit(ghz_job(device_, 6, 300, "b"));
  qrm_.drain();

  const obs::MetricsSnapshot snap = qrm_.metrics_registry().snapshot();
  EXPECT_EQ(snap.counter("qrm.jobs_completed")->value, 2.0);
  EXPECT_EQ(snap.counter("qrm.total_shots")->value, 800.0);
  EXPECT_EQ(snap.histogram("qrm.queue_wait_s")->count, 2u);
  EXPECT_EQ(snap.histogram("qrm.execute_s")->count, 2u);

  // The telemetry bridge re-exports the same values as sensors.
  telemetry::TimeSeriesStore store;
  const std::size_t appended =
      telemetry::bridge_metrics(qrm_.metrics_registry(), store, qrm_.now());
  EXPECT_GT(appended, 0u);
  ASSERT_TRUE(store.has_sensor("obs.qrm.jobs_completed"));
  EXPECT_DOUBLE_EQ(store.latest("obs.qrm.jobs_completed")->value,
                   snap.counter("qrm.jobs_completed")->value);
  EXPECT_TRUE(store.has_sensor("obs.qrm.queue_wait_s.p95"));
}

TEST(TracedService, CompileAndExecuteSpansWithPerPassChildren) {
  Rng rng(8);
  SimClock clock;
  device::DeviceModel device = device::make_iqm20(rng);
  qdmi::ModelBackedDevice qdmi(device, clock);
  mqss::QpuService service(device, qdmi, rng);

  obs::Tracer tracer;
  tracer.set_now_source([&] { return clock.now(); });
  obs::MetricsRegistry registry;
  service.set_tracer(&tracer);
  service.set_metrics(&registry);
  qdmi.set_metrics(&registry);

  service.run(circuit::Circuit::bell(), 100);
  const auto& records = tracer.records();
  const auto named = [&](const std::string& name) {
    return std::count_if(
        records.begin(), records.end(),
        [&](const obs::SpanRecord& r) { return r.name == name; });
  };
  EXPECT_EQ(named("qpu.run"), 1);
  EXPECT_EQ(named("compile"), 1);
  EXPECT_EQ(named("execute"), 1);
  // First compile is a cache miss: the per-pass children are present.
  std::size_t pass_spans = 0;
  for (const auto& r : records)
    if (r.name.rfind("pass:", 0) == 0) ++pass_spans;
  EXPECT_GT(pass_spans, 0u);

  // Second run of the identical circuit: cache hit, no new pass spans.
  const std::size_t before = records.size();
  service.run(circuit::Circuit::bell(), 100);
  std::size_t new_pass_spans = 0;
  const obs::SpanRecord* second_compile = nullptr;
  for (std::size_t i = before; i < records.size(); ++i) {
    if (records[i].name.rfind("pass:", 0) == 0) ++new_pass_spans;
    if (records[i].name == "compile") second_compile = &records[i];
  }
  EXPECT_EQ(new_pass_spans, 0u);
  ASSERT_NE(second_compile, nullptr);
  EXPECT_EQ(*second_compile->attribute("cache"), "hit");

  EXPECT_EQ(registry.counter("mqss.runs").count(), 2u);
  EXPECT_EQ(registry.counter("mqss.compile_cache_hits").count(), 1u);
  EXPECT_EQ(registry.counter("mqss.compile_cache_misses").count(), 1u);
  EXPECT_GT(registry.counter("qdmi.property_queries").count(), 0u);
  EXPECT_GT(registry.counter("qdmi.status_queries").count(), 0u);
  EXPECT_EQ(tracer.open_spans(), 0u);
}

/// Everything one traced mini-campaign exports, for replay comparison.
struct TracedOutcome {
  std::string chrome_json;
  std::string text_tree;
  std::string metrics_json;
};

TracedOutcome run_traced_campaign(std::uint64_t seed,
                                  device::ExecutionMode mode) {
  Rng rng(seed);
  device::DeviceModel device = device::make_iqm20(rng);
  obs::Tracer tracer;
  obs::FlightRecorder recorder;
  tracer.set_flight_recorder(&recorder);

  sched::Qrm::Config config = traced_config();
  config.execution_mode = mode;
  sched::Qrm qrm(device, config, rng, nullptr);
  qrm.set_tracer(&tracer);

  fault::FaultPlan plan;
  plan.add({minutes(30.0), fault::FaultSite::kDeviceExecution, minutes(5.0),
            "glitch"});
  fault::FaultInjector injector(plan);
  qrm.set_fault_injector(&injector);

  const auto chain = device.topology().coupled_chain();
  sched::QuantumJob held = ghz_job(device, 4, 150, "held");  // pre-mask route
  qrm.submit(ghz_job(device, 4, 200, "early"));
  qrm.advance_to(minutes(31.0));  // inside the fault window
  qrm.submit(ghz_job(device, 5, 200, "doomed"));
  qrm.advance_to(minutes(45.0));
  device.set_qubit_health(chain[1], false);
  qrm.submit(std::move(held));
  qrm.advance_to(hours(1.0));
  device.set_qubit_health(chain[1], true);
  qrm.drain();

  TracedOutcome outcome;
  outcome.chrome_json = obs::chrome_trace_json(tracer);
  outcome.text_tree = obs::text_tree(tracer);
  outcome.metrics_json = qrm.metrics_registry().snapshot().to_json();
  return outcome;
}

TEST(TracedCampaign, ExportValidatesAndReplaysBitIdentically) {
  const TracedOutcome a =
      run_traced_campaign(7, device::ExecutionMode::kGlobalDepolarizing);
  const obs::TraceValidation validation =
      obs::validate_chrome_trace(a.chrome_json);
  EXPECT_TRUE(validation.ok) << (validation.errors.empty()
                                     ? ""
                                     : validation.errors.front());
  EXPECT_GT(validation.events, 10u);

  const TracedOutcome b =
      run_traced_campaign(7, device::ExecutionMode::kGlobalDepolarizing);
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.text_tree, b.text_tree);
  EXPECT_EQ(a.metrics_json, b.metrics_json);

  const TracedOutcome c =
      run_traced_campaign(8, device::ExecutionMode::kGlobalDepolarizing);
  EXPECT_NE(a.chrome_json, c.chrome_json);
}

#ifdef _OPENMP
TEST(TracedCampaign, TraceIsIdenticalAcrossThreadCounts) {
  // kTrajectory exercises the OpenMP per-shot loop; the batch events the
  // execute spans carry must not depend on the thread count.
  const int original = omp_get_max_threads();
  omp_set_num_threads(1);
  const TracedOutcome one =
      run_traced_campaign(7, device::ExecutionMode::kTrajectory);
  omp_set_num_threads(original > 1 ? original : 4);
  const TracedOutcome many =
      run_traced_campaign(7, device::ExecutionMode::kTrajectory);
  omp_set_num_threads(original);
  EXPECT_EQ(one.chrome_json, many.chrome_json);
  EXPECT_EQ(one.text_tree, many.text_tree);
  EXPECT_EQ(one.metrics_json, many.metrics_json);
}
#endif

}  // namespace
}  // namespace hpcqc
