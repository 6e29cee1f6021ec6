"""Sub-second checks of the benchmark's own arithmetic and plumbing."""

from __future__ import annotations

import json
import os
import statistics

import numpy as np
import pytest

from e2e import metrics, trace, workloads

_HERE = os.path.dirname(os.path.abspath(__file__))


# -- span arithmetic ------------------------------------------------------

def test_self_time_with_nested_and_sibling_spans():
    # root [0, 100) holds siblings a [10, 30) and b [40, 90); b holds
    # c [50, 60).  A second root d [200, 230) has no children.
    start = [0, 10, 40, 50, 200]
    end = [100, 30, 90, 60, 230]
    parent = [-1, 0, 0, 2, -1]
    own = trace.self_times(start, end, parent)
    assert own.tolist() == [100 - 20 - 50, 20, 50 - 10, 10, 30]
    # Self times of a tree add up to its root's duration.
    assert own[:4].sum() == 100


def test_recording_overhead_is_taken_out_of_the_right_span():
    start, end, parent = [0, 10, 40], [100, 30, 90], [-1, 0, 0]
    own = trace.self_times(start, end, parent, outside=5.0, inside=2.0)
    # The parent pays each child's outside cost, every span its inside.
    assert own.tolist() == [100 - 20 - 50 - 2 * 5 - 2, 20 - 2, 50 - 2]
    # Per-span costs: only the second child is an expensive kind.
    own = trace.self_times(start, end, parent, outside=[0.0, 0.0, 7.0])
    assert own[0] == 100 - 20 - 50 - 7
    # Never negative, however large the estimate.
    assert trace.self_times([0], [3], [-1], inside=10.0).tolist() == [0.0]


def test_recorder_nests_wrapped_calls_and_totals_subtrees():
    recorder = trace.Recorder()
    leaf = recorder.wrap(lambda: None, "layer.leaf")

    def middle():
        leaf()
        leaf()

    wrapped_middle = recorder.wrap(middle, "layer.middle")
    recorder.set_update(7)
    with recorder.span("root"):
        wrapped_middle()
        leaf()
    spans = recorder.spans()
    names = [spans.names[i] for i in spans.name]
    assert names == ["root", "layer.middle", "layer.leaf", "layer.leaf",
                     "layer.leaf"]
    assert spans.parent.tolist() == [-1, 0, 1, 1, 0]
    assert set(spans.update.tolist()) == {7}
    # Subtree totals: the root's total is every self time together.
    assert spans.total_ns[0] == pytest.approx(spans.self_ns.sum())
    assert spans.total_ns[1] == pytest.approx(spans.self_ns[1:4].sum())
    book = trace.ledger(spans, int(spans.start[0]), int(spans.end[0]), 1)
    assert book.count("layer.leaf") == 3
    assert book.unattributed_share == pytest.approx(0.0, abs=1e-9)


def test_nested_kernels_are_charged_once():
    recorder = trace.Recorder()
    charge = lambda a, b, out=None: (10, 100)  # noqa: E731
    inner = recorder.wrap_kernel(lambda self, a, b: a, "backend.inner", charge)
    outer = recorder.wrap_kernel(lambda self, a, b: inner(self, a, b),
                                 "backend.outer", charge)
    outer(None, 1, 2)
    inner(None, 1, 2)
    assert recorder.counts == {"flops": 20, "bytes": 200}
    spans = recorder.spans()
    top = trace.top_level_kernels(spans, 0, int(spans.end.max()))
    assert {name: row["count"] for name, row in top.items()} == {
        "backend.outer": 1, "backend.inner": 1}


def test_install_restores_every_entry_point():
    from repro.backends.dense import DenseBackend
    from repro.runtime.session import Session

    before = (vars(Session)["apply_update"], vars(DenseBackend)["matmul_into"])
    with trace.installed(trace.Recorder()):
        assert vars(Session)["apply_update"] is not before[0]
        assert vars(DenseBackend)["matmul_into"] is not before[1]
    assert (vars(Session)["apply_update"],
            vars(DenseBackend)["matmul_into"]) == before


# -- sampling rules -------------------------------------------------------

def test_highest_percentile_with_ten_samples_beyond():
    assert metrics.supported_percentile(100000, 99) == 99
    assert metrics.supported_percentile(1000, 99) == 99
    # 656 samples: 10 beyond means p98.48, not p99.
    assert metrics.supported_percentile(656, 99) == pytest.approx(98.4756, abs=1e-3)
    assert metrics.supported_percentile(36, 90) == pytest.approx(72.222, abs=1e-3)
    # Too few samples for any tail: the median only.
    assert metrics.supported_percentile(15, 99) == 50
    value, used, count = metrics.tail(list(range(1, 101)), 99)
    assert (used, count) == (90, 100)
    assert value == pytest.approx(np.percentile(range(1, 101), 90))


def test_throughput_is_a_window_statistic_not_total_over_elapsed():
    second = 10 ** 9
    # Nine windows of 1 s and one 11 s stall, 100 updates each.
    bounds = [0]
    for length in [1] * 5 + [11] + [1] * 4:
        bounds.append(bounds[-1] + length * second)
    rates = metrics.window_rates(bounds, 100)
    assert len(rates) == 10 and min(rates) == pytest.approx(100 / 11)
    assert statistics.median(rates) == pytest.approx(100.0)
    assert 100 * 10 / (bounds[-1] / second) == pytest.approx(50.0)


def test_setup_samples_are_scaled_to_the_quiet_box():
    # The reference loop ran twice as slow as on the quiet box, so the
    # set-up's 0.3 s of wall time count as 0.15 s.
    slow = 2 * metrics.REFERENCE_S
    assert metrics.at_reference_speed(0.3, slow) == pytest.approx(0.15)
    assert metrics.at_reference_speed(0.3, metrics.REFERENCE_S) == 0.3


def test_quiet_tenth_is_the_median_of_the_best_windows():
    latencies = list(range(100, 0, -1))  # 1..100, shuffled order irrelevant
    assert metrics.quiet_tenth(latencies) == 5.5
    assert metrics.quiet_tenth(latencies, highest=True) == 95.5
    assert metrics.quiet_tenth([3.0, 1.0, 2.0]) == 1.0  # never empty


def test_peak_rss_is_read_once_at_a_fixed_update_count():
    from e2e import bench_e2e

    applied, readings = [], []

    def rss():
        readings.append(len(applied))
        return 123.0

    result = bench_e2e.closed_loop(applied.append, None, first=0, window=4,
                                   read_every=0, seconds=60.0, windows=5,
                                   rss=rss, rss_window=3)
    assert result.updates == 20 and readings == [12]
    assert result.rss_mb == 123.0
    # A run that ends before the mark leaves the reading to its caller.
    short = bench_e2e.closed_loop(applied.append, None, first=0, window=4,
                                  read_every=0, seconds=60.0, windows=2,
                                  rss=rss, rss_window=3)
    assert short.rss_mb is None


def test_open_loop_times_from_due_time_and_reports_lateness():
    due = metrics.due_times(10.0, 200.0, 4)
    assert due == pytest.approx([10.0, 10.005, 10.010, 10.015])
    # The generator stalled before the third send.
    sent = [10.0, 10.005, 10.030, 10.031]
    assert metrics.lateness_ms(due, sent) == pytest.approx([0, 0, 20, 16])
    # Epochs seen: seq counts updates folded in since the server began.
    publications = [(10.004, 101), (10.040, 103)]
    visible = metrics.visibility_ms(due, publications, base_seq=100)
    # Update 0 is in the first epoch; 1 and 2 wait for the second, and
    # are timed from when they were due, so the stall counts; update 3
    # was never covered and is left out for the caller to count.
    assert visible == pytest.approx([4.0, 35.0, 30.0])


# -- generators -----------------------------------------------------------

def test_streams_are_seeded_and_sum_to_zero():
    a0 = workloads.chain_input(5, 32)
    one = workloads.ChainStream(5, 32, theta=1.5, length=64)
    two = workloads.ChainStream(5, 32, theta=1.5, length=64)
    other = workloads.ChainStream(6, 32, theta=1.5, length=64)
    assert np.array_equal(one.rows, two.rows)
    assert not np.array_equal(one.rows, other.rows)
    np.testing.assert_allclose(one.expected_input(a0, 64), a0, atol=1e-15)
    applied = a0.copy()
    for update in one.updates[:10]:
        applied += update.dense()
    np.testing.assert_allclose(one.expected_input(a0, 64 + 10), applied,
                               atol=1e-15)

    edits = workloads.EdgeToggles(5, workloads.graph(5, 64, degree=4.0),
                                  length=32)
    assert np.array_equal(edits.expected_adjacency(32), edits.adjacency)
    assert edits.expected_adjacency(7).sum(axis=0).min() >= 1


# -- the whole path, at smoke size ----------------------------------------

def test_smoke_run_reports_every_declared_metric():
    from e2e import bench_e2e

    timed = bench_e2e.run_one("dense_small", seed=3, seconds=0.2,
                              traced=False, smoke=True)
    assert timed["result"]["correct"] and timed["result"]["failed"] == 0
    cells = timed["result"]["metrics"]
    assert list(cells) == [row[0] for row in metrics.E2E_METRICS]
    assert all(cell["value"] > 0 for cell in cells.values())
    assert timed["failed_ops_frac"] == 0
    declared = [row[0] for row in metrics.E2E_DIAGNOSTICS]
    assert set(timed["timings"]) == set(declared) - {"visible_p50_ms",
                                                     "visible_p90_ms"}
    assert all(cell["value"] > 0 for cell in timed["timings"].values())

    traced = bench_e2e.run_one("dense_small", seed=3, seconds=2.0,
                               traced=True, smoke=True)
    assert traced["result"]["correct"] and traced["counts_exact"]
    cells = traced["result"]["metrics"]
    assert list(cells) == [row[0] for row in metrics.LAYER_METRICS]
    assert cells["backend.kernel_calls_per_update"]["value"] > 0
    assert cells["deferral.flushes"]["value"] == 0
    assert 0 <= cells["trace.unattributed_share"]["value"] < 1


def test_benchmark_json_matches_the_declarations():
    path = os.path.join(_HERE, "..", "..", "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json beside this checkout")
    with open(path) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.SPECS)
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in declared["end_to_end"]] == list(metrics.E2E_METRICS)
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == list(metrics.LAYER_METRICS)


def test_a_run_leaves_no_process_behind():
    # A process that starts a long sleeper (and, through a child that
    # exits at once, an orphaned one) and then stops its descendants.
    import subprocess
    import sys

    script = (
        "import subprocess, sys\n"
        f"sys.path.insert(0, {os.path.dirname(_HERE)!r})\n"
        "from e2e import bench_e2e\n"
        "bench_e2e.adopt_orphans()\n"
        "own = subprocess.Popen(['sleep', '60'])\n"
        "orphan = subprocess.run(\n"
        "    ['sh', '-c', 'sleep 60 >/dev/null 2>&1 & echo $!'],\n"
        "    capture_output=True, text=True).stdout.strip()\n"
        "bench_e2e.stop_descendants(grace_s=0.05)\n"
        "print(own.pid, orphan)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    pids = done.stdout.split()
    assert len(pids) == 2
    assert not any(os.path.exists(f"/proc/{pid}") for pid in pids)
