#!/usr/bin/env python3
"""End-to-end benchmark of the hpcqc stack.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the benchmark binary from the repository's sources (first run only),
runs one workload in its own process, checks its outputs, prints a table of
every metric with its unit, clock and sample count, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced replay.
Exits non-zero, naming the workload and the reason, when the build, the run
or an output check fails.

    python3 e2ebench/run.py --record

re-records the control-plane statistics in golden.json (after a change that
is meant to alter simulated behaviour). See README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import metrics  # noqa: E402

BUILD = Path(os.environ.get("E2EBENCH_BUILD_DIR", ROOT / ".bench_build"))
GOLDEN = HERE / "golden.json"
CLIENT_WORKLOADS = ("variational_loop", "wide_sampling")
CONTROL_WORKLOADS = ("open_loop_admission",)
WORKLOADS = CLIENT_WORKLOADS + CONTROL_WORKLOADS
SCENARIOS = 16  # recorded control-plane scenarios; seed n runs n mod 16
RUN_TIMEOUT_S = 170

END_TO_END = {  # name: unit
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}
PER_LAYER = {
    "hybrid.driver_us_per_job": "us",
    "mqss.compile_us_per_job": "us",
    "mqss.cache_hit_ratio": "ratio",
    "device.execute_us_per_job": "us",
    "device.errored_shot_ratio": "ratio",
    "qsim.amp_updates_per_s": "1/s",
    "qsim.bytes_per_s_computed": "B/s",
    "net.serialize_us_per_job": "us",
    "net.payload_bytes_per_job": "B",
    "load.stamp_us_per_job": "us",
    "sched.gateway.offer_ns_per_job": "ns",
    "sched.gateway.backpressure_events": "count",
    "sched.qrm.admit_us_per_job": "us",
    "sched.qrm.advance_us_per_job": "us",
    "sched.qrm.audit_ms": "ms",
    "ops.campaign.us_per_job": "us",
    "ops.campaign.day_cost_growth": "ratio",
    "common.log.records": "count",
    "telemetry.store.samples": "count",
    "bench.unattributed_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


class BenchError(Exception):
    """A failure that ends the run without a result."""


def build():
    """Configures and builds the binary once per checkout; later runs find
    it up to date. A lock serializes concurrent runs."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("cannot build: no src/CMakeLists.txt beside e2ebench/")
    if shutil.which("cmake") is None:
        raise BenchError("cannot build: cmake not found")
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
        steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError(f"build failed: see {log_path}")
    return BUILD / "e2ebench"


def run_binary(binary, workload, seed, seconds, trace):
    command = [str(binary), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"no result within {RUN_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()[-1:] or ["no message"]
        raise BenchError(f"e2ebench exited {proc.returncode}: {detail[0]}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError("e2ebench printed no result") from None


def golden_failures(name, seed, pass_stats):
    """Each pass's simulated statistics against the values recorded under
    `name` for the scenario; a speed-only change leaves every one of them
    identical. Returns the messages and the indices of the passes that
    differ; with nothing recorded for the scenario, every pass differs."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    expected = golden.get(name, {}).get(str(seed % SCENARIOS))
    if expected is None:
        return ([f"recorded {name} statistics: none for scenario "
                 f"{seed % SCENARIOS}"], list(range(len(pass_stats))))
    messages, failed = [], []
    for index, stats in enumerate(pass_stats):
        wrong = [f"recorded {name} statistics: pass {index}: {key} is "
                 f"{stats.get(key)!r}, recorded {value!r}"
                 for key, value in expected.items()
                 if stats.get(key) != value]
        if wrong:
            messages += wrong
            failed.append(index)
    return messages, failed


def attempted_count(raw):
    """Client jobs, or offered jobs over every timed control-plane pass."""
    if raw["workload"] in CLIENT_WORKLOADS:
        return raw["pass"]["jobs"]
    return raw["offered"] * len(raw["pass_s"])


def failed_count(raw, attempted, failed_passes, run_failed):
    """Operations that failed a check: client jobs, or every offered job of
    a control-plane pass that failed one. A failed check of the whole run
    fails all of them."""
    if raw["workload"] in CLIENT_WORKLOADS:
        return metrics.failed_operations(attempted, raw["failed_ops"],
                                         run_failed)
    return metrics.failed_operations(
        attempted, raw["failed_ops"] + failed_passes, run_failed,
        per_id=raw["offered"])


def end_to_end(raw, attempted, failed):
    """{name: (value, samples)} of the end-to-end metrics, and the report-only
    rows that exist on some workloads only."""
    out = {"setup_s": (metrics.median(raw["setup_s"]), len(raw["setup_s"])),
           "peak_rss_mb": (raw["peak_rss_mb"], 1)}
    report = {}
    if raw["workload"] in CLIENT_WORKLOADS:
        passed = raw["pass"]
        rates = metrics.round_rates(passed["unit_s"], passed["unit_jobs"],
                                    raw["round_units"])
        out["jobs_per_s"] = (metrics.median(rates), len(rates))
        out["success_rate"] = (metrics.success_share(attempted, failed),
                               attempted)
        if raw["workload"] == "wide_sampling":  # shots vary per job there
            shots = metrics.round_rates(passed["unit_s"], passed["unit_shots"],
                                        raw["round_units"])
            report["shots_per_s"] = ("1/s", "host", metrics.median(shots),
                                     len(shots))
        else:  # one job shape, enough samples for a tail
            latencies = raw["latencies_s"]
            for name, q in (("job_latency_p50_ms", 0.5),
                            ("job_latency_p99_ms", 0.99)):
                value = metrics.supported_quantile(latencies, q)
                report[name] = ("ms", "host",
                                None if value is None else value * 1e3,
                                len(latencies))
    else:
        rates = metrics.pass_rates(raw["offered"], raw["pass_s"])
        out["jobs_per_s"] = (metrics.median(rates), len(rates))
        stats = raw["pass_stats"][0]
        out["success_rate"] = (stats["completed"] / stats["offered"],
                               stats["offered"])
    return out, report


def unattributed(wall, attributed):
    """Share of traced wall time outside every layer's self time."""
    return (max(0.0, wall - attributed) / wall, 1)


def per_layer(raw):
    """{name: (value, samples)} of the per-layer metrics, and a note for
    each metric the workload cannot measure: such a metric reads 0 with 0
    samples."""
    layers = raw["trace"]["layers"]
    traced = raw.get("traced", {})
    out = {name: (0.0, 0) for name in PER_LAYER}
    notes = {}

    def total(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def count(name):
        return layers.get(name, {}).get("count", 0)

    if raw["workload"] in CLIENT_WORKLOADS:
        jobs = traced["jobs"]
        if "hybrid.qaoa" in layers:
            out["hybrid.driver_us_per_job"] = (
                layers["hybrid.qaoa"]["self_s"] / jobs * 1e6, count("hybrid.qaoa"))
        lookups = traced["cache_hits"] + traced["cache_misses"]
        out["mqss.cache_hit_ratio"] = (traced["cache_hits"] / lookups, lookups)
        for metric, span in (("mqss.compile_us_per_job", "mqss.compile"),
                             ("device.execute_us_per_job", "device.execute"),
                             ("net.serialize_us_per_job", "net.serialize")):
            out[metric] = (total(span) / jobs * 1e6, count(span))
        out["device.errored_shot_ratio"] = (
            traced["errored_shots"] / traced["shots"], traced["shots"])
        out["net.payload_bytes_per_job"] = (traced["payload_bytes"] / jobs, jobs)
        if traced["amp_updates"] > 0:
            execute = total("device.execute")
            out["qsim.amp_updates_per_s"] = (
                traced["amp_updates"] / execute, count("device.execute"))
            out["qsim.bytes_per_s_computed"] = (
                traced["state_bytes_moved"] / execute, count("device.execute"))
        root = "hybrid.qaoa" if "hybrid.qaoa" in layers else "bench.job"
        attributed = sum(v["self_s"] for k, v in layers.items()
                         if not k.startswith("bench."))
        out["bench.unattributed_ratio"] = unattributed(total(root), attributed)
    else:
        jobs = raw["offered"]
        for metric, span, scale in (
                ("load.stamp_us_per_job", "load.stamp", 1e6),
                ("sched.gateway.offer_ns_per_job", "sched.gateway.offer", 1e9),
                ("sched.qrm.admit_us_per_job", "sched.qrm.admit", 1e6),
                ("sched.qrm.advance_us_per_job", "sched.qrm.advance", 1e6)):
            out[metric] = (total(span) / jobs * scale, count(span))
        out["sched.gateway.backpressure_events"] = (
            raw["backpressure_events"], jobs)
        out["sched.qrm.audit_ms"] = (total("sched.qrm.audit") * 1e3,
                                     count("sched.qrm.audit"))
        # Stamp and offer run on the ingest threads inside load.ingest.
        attributed = sum(total(name) for name in
                         ("load.ingest", "sched.qrm.advance", "sched.qrm.admit"))
        out["bench.unattributed_ratio"] = unattributed(raw["traced_wall_s"],
                                                       attributed)
        # The service campaign the traced run times after its pass.
        campaign = raw["campaign"]
        out["ops.campaign.us_per_job"] = (
            total("ops.campaign.run") / campaign["offered"] * 1e6,
            count("ops.campaign.run"))
        out["ops.campaign.day_cost_growth"] = (
            (campaign["growth_long_s"] / campaign["growth_long_days"])
            / (campaign["growth_short_s"] / campaign["growth_short_days"]), 2)
        out["common.log.records"] = (campaign["log_records"], 1)
        out["telemetry.store.samples"] = (campaign["store_samples"], 1)
    out["bench.trace_overhead_ratio"] = (
        raw["traced_wall_s"] / raw["untraced_wall_s"], 2)
    for name, (_, samples) in out.items():
        if samples == 0:
            notes.setdefault(name, "layer not called")
    return out, notes


def print_table(workload, rows):
    """rows: (name, unit, clock, value or None, samples, note)."""
    print(f"e2ebench {workload}")
    print(f"  {'metric':36} {'value':>16} {'unit':6} {'clock':9} samples")
    for name, unit, clock, value, samples, note in rows:
        shown = "unsupported" if value is None else f"{value:.6g}"
        print(f"  {name:36} {shown:>16} {unit:6} {clock:9} {samples:>7}"
              f"{'  ' + note if note else ''}")


def measure(args):
    binary = build()
    raw = run_binary(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    failures = list(raw["check_failures"])
    failed_passes, run_failed = [], raw["run_failed"]
    if args.workload in CONTROL_WORKLOADS:
        messages, failed_passes = golden_failures(args.workload, args.seed,
                                                  raw["pass_stats"])
        failures += messages
        if args.trace:  # the service campaign of the traced run
            messages, _ = golden_failures("service_campaign", args.seed,
                                          [raw["campaign"]["stats"]])
            failures += messages
            run_failed = run_failed or bool(messages)
    attempted = attempted_count(raw)
    failed = failed_count(raw, attempted, failed_passes, run_failed)
    rows = []
    if args.trace:
        values, notes = per_layer(raw)
        result_metrics = {name: values[name] for name in PER_LAYER}
        for name, (value, samples) in result_metrics.items():
            rows.append((name, PER_LAYER[name], "host", value, samples,
                         notes.get(name, "")))
    else:
        values, report = end_to_end(raw, attempted, failed)
        result_metrics = {name: values[name] for name in END_TO_END}
        for name, (value, samples) in result_metrics.items():
            clock = ("simulated" if name == "success_rate"
                     and args.workload in CONTROL_WORKLOADS else "host")
            rows.append((name, END_TO_END[name], clock, value, samples, ""))
        for name, (unit, clock, value, samples) in report.items():
            rows.append((name, unit, clock, value, samples, "report only"))
    print_table(args.workload, rows)
    if "counts_fingerprint" in raw:
        print(f"  counts fingerprint, first round: {raw['counts_fingerprint']}")
    if raw["workload"] == "variational_loop":
        print(f"  jobs checked against the exact distribution: "
              f"{raw['pass']['exact_checks']}")
    if "pass_stats" in raw:
        print(f"  replay fingerprint: {raw['pass_stats'][0]['fingerprint']}")
    if "campaign" in raw:
        print(f"  service campaign fingerprint: "
              f"{raw['campaign']['stats']['fingerprint']}")
    print(f"  failed operations: {failed} of {attempted}")
    if args.trace:
        print(f"  chrome trace: {raw['trace']['trace_file']} "
              f"({raw['trace']['trace_events']} events)")
    for failure in failures:
        print(f"e2ebench: {args.workload}: check failed: {failure}",
              file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": (PER_LAYER if args.trace
                                                    else END_TO_END)[name]}
                    for name, (value, _) in result_metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def record():
    """Records the open-loop pass and the service campaign of a traced run
    per scenario; the traced run checks its replays against the pass."""
    binary = build()
    golden = {"open_loop_admission": {}, "service_campaign": {}}
    for scenario in range(SCENARIOS):
        raw = run_binary(binary, "open_loop_admission", scenario, 1, True)
        if raw["check_failures"]:
            raise BenchError(f"scenario {scenario}: "
                             f"{raw['check_failures'][0]}")
        golden["open_loop_admission"][str(scenario)] = raw["pass_stats"][0]
        golden["service_campaign"][str(scenario)] = raw["campaign"]["stats"]
        print(f"recorded scenario {scenario}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    name = "record" if args.record else args.workload
    try:
        return record() if args.record else measure(args)
    except BenchError as error:
        print(f"e2ebench: {name}: {error}", file=sys.stderr)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as error:
        print(f"e2ebench: {name}: malformed measurement: {error!r}",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
