"""Metric arithmetic of the end-to-end benchmark.

Pure functions over the raw measurements the e2ebench binary prints, kept
apart from run.py so that test_metrics.py can check them without a build.
"""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
SAMPLES_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def quantile(values, q):
    """Nearest-rank quantile: the smallest sample with at least a share q of
    the samples at or below it."""
    if not values:
        raise ValueError("quantile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("quantile outside (0, 1]")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def supports(count, q):
    """Whether `count` samples leave SAMPLES_BEYOND of them above the q
    quantile (p99 needs 1000, p90 100, the median 20)."""
    return count * (1.0 - q) >= SAMPLES_BEYOND - 1e-9


def supported_quantile(values, q):
    """The q quantile, or None when the sample is too small to support it."""
    return quantile(values, q) if supports(len(values), q) else None


def rate(count, seconds):
    if seconds <= 0.0:
        raise ValueError("rate over no time")
    return count / seconds


def round_rates(unit_seconds, unit_jobs, round_units):
    """Jobs per second of each complete round of `round_units` consecutive
    units (a round holds every input shape once, so rounds are comparable).
    A run shorter than one round yields a single rate over all its units."""
    if len(unit_seconds) != len(unit_jobs) or not unit_seconds:
        raise ValueError("need one job count per timed unit")
    rounds = len(unit_seconds) // round_units
    if rounds == 0:
        return [rate(sum(unit_jobs), sum(unit_seconds))]
    return [
        rate(sum(unit_jobs[r * round_units:(r + 1) * round_units]),
             sum(unit_seconds[r * round_units:(r + 1) * round_units]))
        for r in range(rounds)
    ]


def pass_rates(count_per_pass, pass_seconds):
    """Rate of each repetition of an identical pass."""
    return [rate(count_per_pass, seconds) for seconds in pass_seconds]


def success_share(attempted, failed):
    """Share of attempted operations that did not fail."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed outside [0, attempted]")
    return (attempted - failed) / attempted


def failed_operations(attempted, failed_ids, run_failed, per_id=1):
    """Operations that failed a check. Each distinct failed id stands for
    `per_id` operations (a control-plane pass for its offered jobs); a check
    of the whole run fails all of them."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if run_failed:
        return attempted
    return min(attempted, len(set(failed_ids)) * per_id)


def quantiles_of(values):
    """First quartile, median and third quartile (statistics.quantiles'
    default method, as the run-to-run spread is judged)."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Distance between the first and third quartile as a share of the
    median."""
    q1, q2, q3 = quantiles_of(values)
    return (q3 - q1) / q2
