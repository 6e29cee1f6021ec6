"""Benchmark harness plumbing."""

import numpy as np
import pytest

from repro.bench import (
    Series,
    compare_strategies,
    format_seconds,
    paper_vs_measured,
    render_comparison_table,
    render_series,
    time_refresh,
)


class _FakeMaintainer:
    def __init__(self):
        self.calls = 0

    def refresh(self, u, v):
        self.calls += 1


class TestSeries:
    def test_add_and_lookup(self):
        series = Series("t")
        series.add("REEVAL", 2.0)
        series.add("INCR", 0.5)
        assert series.value("INCR") == 0.5
        assert series.speedup("REEVAL", "INCR") == 4.0

    def test_missing_label(self):
        with pytest.raises(ValueError):
            Series("t").value("nope")


class TestTimeRefresh:
    def test_applies_all_updates(self, rng):
        maintainer = _FakeMaintainer()
        updates = [(rng.normal(size=(3, 1)), rng.normal(size=(3, 1)))
                   for _ in range(5)]
        seconds = time_refresh(maintainer, updates, warmup=2)
        assert maintainer.calls == 5
        assert seconds >= 0.0

    def test_needs_more_than_warmup(self, rng):
        with pytest.raises(ValueError):
            time_refresh(_FakeMaintainer(), [(None, None)], warmup=1)

    def test_compare_strategies_same_stream(self, rng):
        streams = []

        def updates_factory():
            stream = [(np.ones((2, 1)), np.ones((2, 1))) for _ in range(3)]
            streams.append(stream)
            return stream

        series = compare_strategies(
            "demo",
            {"a": _FakeMaintainer, "b": _FakeMaintainer},
            updates_factory,
        )
        assert series.labels == ["a", "b"]
        assert len(streams) == 2


class TestReporting:
    def test_format_seconds_scales(self):
        assert format_seconds(5e-7).strip().endswith("us")
        assert format_seconds(5e-2).strip().endswith("ms")
        assert format_seconds(2.0).strip().endswith("s")

    def test_render_series_with_speedups(self):
        series = Series("Fig Xx")
        series.add("REEVAL", 1.0)
        series.add("INCR", 0.1)
        text = render_series(series, baseline="REEVAL")
        assert "Fig Xx" in text
        assert "10.0x vs REEVAL" in text

    def test_render_comparison_table(self):
        text = render_comparison_table(
            "Table T", ["a", "b"], {"row1": [1.0, 2.0]},
            formatter=lambda v: f"{v:.1f}",
        )
        assert "Table T" in text and "row1" in text and "2.0" in text

    def test_paper_vs_measured_line(self):
        line = paper_vs_measured("Fig 3a", "18.1x (Octave)", 12.3)
        assert "Fig 3a" in line and "12.3x" in line


class TestTimeRefreshTrimmed:
    """The outlier-robust timing path used by the figure reports."""

    def test_counts_refreshes_correctly(self):
        from repro.bench import time_refresh_trimmed

        class Recorder:
            def __init__(self):
                self.calls = 0

            def refresh(self, u, v):
                self.calls += 1

        recorder = Recorder()
        updates = [(None, None)] * 12
        time_refresh_trimmed(recorder, updates, warmup=1, trim=2)
        assert recorder.calls == 12

    def test_requires_enough_samples(self):
        from repro.bench import time_refresh_trimmed

        class Noop:
            def refresh(self, u, v):
                pass

        with pytest.raises(ValueError, match="more than warmup"):
            time_refresh_trimmed(Noop(), [(None, None)] * 5, warmup=1, trim=2)

    def test_trims_outliers(self):
        from repro.bench import time_refresh_trimmed

        class Spiky:
            """One refresh sleeps; the trimmed mean must not see it."""

            def __init__(self):
                self.calls = 0

            def refresh(self, u, v):
                import time as time_mod

                self.calls += 1
                if self.calls == 5:
                    time_mod.sleep(0.05)

        trimmed = time_refresh_trimmed(Spiky(), [(None, None)] * 12,
                                       warmup=1, trim=2)
        assert trimmed < 0.01  # the 50 ms spike was discarded

    def test_result_positive_and_finite(self):
        import numpy as np

        from repro.bench import time_refresh_trimmed
        from repro.iterative import Model, make_powers

        rng = np.random.default_rng(1)
        a = 0.2 * rng.normal(size=(16, 16)) / 4.0
        model = make_powers("INCR", a, 4, Model.linear())
        updates = []
        for seed in range(12):
            gen = np.random.default_rng(seed)
            u = np.zeros((16, 1))
            u[gen.integers(16), 0] = 1.0
            updates.append((u, 0.01 * gen.standard_normal((16, 1))))
        seconds = time_refresh_trimmed(model, updates)
        assert 0.0 < seconds < 1.0


def _load_check_trend():
    import importlib.util
    import sys
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "check_trend.py"
    spec = importlib.util.spec_from_file_location("check_trend", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations there
    spec.loader.exec_module(module)
    return module, path.parent / "baselines"


check_trend, _BASELINES = _load_check_trend()

_TREND_ROWS = [
    pytest.param(bench, row, id=f"{bench}-{'.'.join(row.path)}")
    for bench, (_, rows) in check_trend.TABLE.items()
    for row in rows
]

#: Values an invariant might reject; the first one it does is planted.
_VIOLATIONS = [False, 0, 3, "uniform", "heavy-light",
               {"staleness_bound": 4, "max_staleness_observed": 5}]


def _rejects(row, value) -> bool:
    try:
        return not row.holds(value)
    except (AttributeError, TypeError, ValueError):
        return False  # not the kind of value this invariant reads


def _baseline(bench):
    stem = check_trend.TABLE[bench][0]
    return check_trend.load(_BASELINES / f"BENCH_{stem}.json")


def _plant(results, path, value):
    """Set ``value`` at ``path`` (a ``"*"`` element adds a new cell)."""
    node = results
    for part in path[:-1]:
        node = node.setdefault(part, {})
    node["synthetic" if path[-1] == "*" else path[-1]] = value


class TestTrendGate:
    """benchmarks/check_trend.py: one table, every row enforced."""

    @pytest.mark.parametrize("bench", sorted(check_trend.TABLE))
    def test_committed_baseline_passes_against_itself(self, bench, capsys):
        stem = check_trend.TABLE[bench][0]
        path = str(_BASELINES / f"BENCH_{stem}.json")
        assert check_trend.main([bench, path, path]) == 0
        assert "within baseline envelope" in capsys.readouterr().out

    def test_every_baseline_file_has_a_table_entry(self):
        stems = {stem for stem, _ in check_trend.TABLE.values()}
        on_disk = {p.stem.removeprefix("BENCH_")
                   for p in _BASELINES.glob("BENCH_*.json")}
        assert stems == on_disk

    @pytest.mark.parametrize("bench,row", _TREND_ROWS)
    def test_one_point_beyond_the_limit_fails_with_the_rows_message(
            self, bench, row, capsys):
        import copy

        baseline = _baseline(bench)
        current = copy.deepcopy(baseline)
        if isinstance(row, check_trend.Invariant):
            bad = next(v for v in _VIOLATIONS if _rejects(row, v))
            _plant(current, row.path, bad)
        else:
            edge = check_trend.limit(row, current, baseline)
            sign = 1.0 if row.better == "higher" else -1.0
            beyond = edge * (1.0 - sign * 0.01)
            if row.per is not None:
                beyond *= check_trend._value(
                    current, check_trend.Metric(row.per, "divisor"))
            _plant(current, row.path, beyond)
        failures = check_trend.check(bench, current, baseline)
        assert len(failures) == 1 and row.what in failures[0], failures

    def test_conditional_floor_binds_only_where_physical(self):
        baseline = _baseline("dist")  # recorded on a 2-core box: 1.16x
        current = dict(baseline, derived={"speedup_w4": 1.99})
        assert not check_trend.check("dist", dict(current, cpu_count=1, n=2048),
                                     baseline)
        assert not check_trend.check("dist", dict(current, cpu_count=4, n=256),
                                     baseline)
        [failure] = check_trend.check(
            "dist", dict(current, cpu_count=4, n=2048), baseline)
        assert "4-worker speedup" in failure and "floor 2" in failure

    def test_missing_key_and_usage_errors(self, tmp_path, capsys):
        baseline = _baseline("batch")
        current = {k: v for k, v in baseline.items() if k != "reeval_theta2"}
        failures = check_trend.check("batch", current, baseline)
        assert failures and all(
            "reeval_theta2" in f and "missing" in f for f in failures)
        assert check_trend.main(["batch", "only-one-file.json"]) == 2
        assert check_trend.main(["no-such-bench", "a.json", "b.json"]) == 2
        capsys.readouterr()
