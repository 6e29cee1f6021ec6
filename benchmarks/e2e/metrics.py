"""Metric declarations and the sampling rules every workload shares.

``BENCHMARK.json`` at the repository root repeats the gated end-to-end
table and the per-layer table below (name, unit, direction, bound);
``test_harness.py`` checks that the two stay in step.
"""

from __future__ import annotations

import bisect
import statistics
from typing import Sequence

import numpy as np

#: Gated end-to-end metrics: (name, unit, better, bound).  Every
#: workload reports both, measured with tracing off.  The bound is the
#: share of the parent commit's median by which a metric may worsen
#: before a change counts as a regression.
E2E_METRICS = (
    ("setup_s", "s", "lower", 0.20),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: ``setup_s`` may also differ by this many seconds before it counts.
SETUP_SLACK_S = 0.05

#: Seconds ``bench_e2e.reference_s`` takes on the reference box when
#: the box is left alone.
REFERENCE_S = 0.0256

#: End-to-end timings: (name, unit, better).  Printed by every timed
#: run and kept in the history, but **not gated**: on the 2-vCPU
#: reference box ten runs of one workload spread 4-25% (quartile
#: distance over median; tails up to 100%) and the medians of two
#: ten-run sweeps sit up to 23% apart, so none of them can hold a 10%
#: bound, and a metric that misses its bound is demoted, not given a
#: wider one.
#: ``visible_*`` exist on ``served`` only.
E2E_DIAGNOSTICS = (
    ("updates_per_s", "1/s", "higher"),
    ("update_p50_ms", "ms", "lower"),
    ("update_p99_ms", "ms", "lower"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p90_ms", "ms", "lower"),
    ("visible_p50_ms", "ms", "lower"),
    ("visible_p90_ms", "ms", "lower"),
    ("quiet_updates_per_s", "1/s", "higher"),
    ("quiet_update_p50_ms", "ms", "lower"),
)

#: A diagnostic further apart than this between two A/A sets is marked
#: unresolved (the bound it would have carried as a gated metric).
DIAGNOSTIC_BOUND = 0.10

#: Per-layer metrics of the traced run: (name, unit, better).  A metric
#: whose layer a workload does not touch reads 0 there.
LAYER_METRICS = (
    ("frontend.parse_ms", "ms", "lower"),
    ("compiler.compile_ms", "ms", "lower"),
    ("compiler.fused_ms", "ms", "lower"),
    ("planner.plan_ms", "ms", "lower"),
    ("planner.cells", "count", "lower"),
    ("planner.regret", "ratio", "lower"),
    ("session.validate_us", "us", "lower"),
    ("session.dispatch_self_us", "us", "lower"),
    ("session.share", "ratio", "lower"),
    ("backend.kernel_share", "ratio", "lower"),
    ("backend.kernel_calls_per_update", "count", "lower"),
    ("backend.matmul_into_us", "us", "lower"),
    ("backend.add_into_us", "us", "lower"),
    ("backend.scale_into_us", "us", "lower"),
    ("backend.add_outer_inplace_us", "us", "lower"),
    ("backend.matmul_us", "us", "lower"),
    ("backend.add_outer_us", "us", "lower"),
    ("backend.compact_us", "us", "lower"),
    ("backend.computed_flops_per_update", "flop", "lower"),
    ("backend.computed_bytes_per_update", "B", "lower"),
    ("views.write_us", "us", "lower"),
    ("views.read_copy_us", "us", "lower"),
    ("views.share", "ratio", "lower"),
    ("deferral.absorb_us", "us", "lower"),
    ("deferral.flush_ms", "ms", "lower"),
    ("deferral.flushes", "count", "lower"),
    ("deferral.compact_ms", "ms", "lower"),
    ("deferral.heavy_hit_frac", "ratio", "higher"),
    ("deferral.amortization", "ratio", "higher"),
    ("deferral.share", "ratio", "lower"),
    ("drift.replan_ms", "ms", "lower"),
    ("drift.replans", "count", "lower"),
    ("drift.forced_flushes", "count", "lower"),
    ("drift.share", "ratio", "lower"),
    ("serving.submit_us", "us", "lower"),
    ("serving.queue_wait_ms", "ms", "lower"),
    ("serving.publish_ms", "ms", "lower"),
    ("serving.epochs", "count", "higher"),
    ("serving.copy_bytes_per_epoch", "B", "lower"),
    ("serving.read_us", "us", "lower"),
    ("serving.max_pending_at_publish", "count", "lower"),
    ("serving.share", "ratio", "lower"),
    ("ipc.roundtrip_ms", "ms", "lower"),
    ("ipc.messages_per_update", "count", "lower"),
    ("ipc.bytes_per_update", "B", "lower"),
    ("ipc.wait_share", "ratio", "lower"),
    ("ipc.worker_busy_share", "ratio", "higher"),
    ("ipc.worker_skew", "ratio", "lower"),
    ("ipc.worker_peak_rss_mb", "MB", "lower"),
    ("catalog.apply_self_us", "us", "lower"),
    ("catalog.node_refreshes_per_update", "count", "lower"),
    ("catalog.shared_hits", "count", "higher"),
    ("catalog.read_us", "us", "lower"),
    ("catalog.demand_reads", "count", "lower"),
    ("catalog.evictions", "count", "lower"),
    ("catalog.share", "ratio", "lower"),
    ("analytics.edit_self_us", "us", "lower"),
    ("analytics.share", "ratio", "lower"),
    ("checkpoint.cut_ms", "ms", "lower"),
    ("checkpoint.restore_ms", "ms", "lower"),
    ("checkpoint.bytes", "B", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)

#: Count-type layer metrics that must repeat exactly for one seed
#: (``aa_check.py`` fails when they do not).
EXACT_LAYER_METRICS = (
    "ipc.bytes_per_update",
    "ipc.messages_per_update",
    "deferral.flushes",
    "deferral.heavy_hit_frac",
    "backend.kernel_calls_per_update",
    "catalog.node_refreshes_per_update",
    "drift.replans",
)

#: A reported percentile needs at least this many samples beyond it.
SAMPLES_BEYOND = 10


def supported_percentile(count: int, want: float) -> float:
    """Highest percentile <= ``want`` with SAMPLES_BEYOND samples beyond it.

    With too few samples for any tail (``count < 2 * SAMPLES_BEYOND``)
    only the median is supported.
    """
    if count < 2 * SAMPLES_BEYOND:
        return 50.0
    return max(50.0, min(want, 100.0 * (1.0 - SAMPLES_BEYOND / count)))


def tail(samples: Sequence[float], want: float) -> tuple[float, float, int]:
    """``(value, percentile actually used, sample count)`` for one timing."""
    count = len(samples)
    if count == 0:
        raise ValueError("no samples")
    used = supported_percentile(count, want)
    return float(np.percentile(samples, used)), used, count


def at_reference_speed(wall_s: float, reference_s: float) -> float:
    """``wall_s`` as it would read with the box at its quiet speed.

    The reference box runs one and the same set-up 45% slower for
    minutes at a time (its core slows; nothing else runs), which no
    number of repeats inside a run averages out.  A fixed reference
    loop timed right before and after each set-up says how slow the box
    was at that moment, and the sample is scaled back by that factor:
    medians of 13 samples then repeat within ~5% where raw ones spread
    14%, and two A/A sets agree.  More work in the set-up still reads
    as more seconds; a slower box does not.
    """
    return wall_s * REFERENCE_S / reference_s


def window_rates(bounds_ns: Sequence[int], ops_per_window: int) -> list[float]:
    """Operations per second of each equal-count window.

    ``bounds_ns`` holds the window boundaries (one more than windows).
    """
    return [
        ops_per_window / ((end - start) * 1e-9)
        for start, end in zip(bounds_ns, bounds_ns[1:])
    ]


def quiet_tenth(values: Sequence[float], highest: bool = False) -> float:
    """Median of the best tenth of per-window ``values`` (the lowest,
    or the highest).

    On a shared machine interference only slows a run down, so the
    best windows say what the program costs when left alone.  That is
    a selected statistic - it also hides the program's own slow phases
    - which is why it is reported beside the whole-run median and
    never in its place.
    """
    ordered = sorted(values, reverse=highest)
    return statistics.median(ordered[:max(1, len(ordered) // 10)])


def due_times(start: float, rate: float, count: int) -> list[float]:
    """Open-loop send schedule: ``count`` sends at ``rate`` per second."""
    return [start + index / rate for index in range(count)]


def lateness_ms(due: Sequence[float], sent: Sequence[float]) -> list[float]:
    """How late the generator sent each request, in milliseconds."""
    return [max(0.0, actual - planned) * 1e3
            for planned, actual in zip(due, sent)]


def visibility_ms(due: Sequence[float],
                  publications: Sequence[tuple[float, int]],
                  base_seq: int) -> list[float]:
    """Milliseconds from each update's due time until it was readable.

    ``publications`` lists ``(published_at, seq)`` of the epochs seen,
    in publication order; update ``i`` (0-based after ``base_seq``) is
    readable at the first epoch whose ``seq - base_seq`` exceeds ``i``.
    Timing from the *due* time charges a stalled generator's delay to
    the requests it delayed.  Updates no seen epoch covered are left
    out (the caller counts them as failed).
    """
    seqs = [seq - base_seq for _, seq in publications]
    out = []
    for index, planned in enumerate(due):
        slot = bisect.bisect_right(seqs, index)
        if slot < len(publications):
            out.append((publications[slot][0] - planned) * 1e3)
    return out
