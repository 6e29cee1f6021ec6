"""bench_e2e: end-to-end numbers in absolute units, plus a per-layer ledger.

One workload, as the benchmark contract runs it::

    python3 benchmarks/e2e/bench_e2e.py --workload dense_chain --seed 7 \
        --seconds 8 --trace 0        # end-to-end metrics, tracing off
    python3 benchmarks/e2e/bench_e2e.py --workload dense_chain --seed 7 \
        --seconds 8 --trace 1        # per-layer ledger of a traced run

prints every metric by name with its unit and ends with one JSON line.
Without ``--workload`` it runs all eight workloads, timed and traced,
each in a fresh subprocess, and ``--json OUT`` keeps the full result.

See README.md in this directory for what each number means.
"""

from __future__ import annotations

import os
import sys

if __name__ == "__main__":
    # Only when run as the benchmark: importing this module (the harness
    # tests do) must not change the importing process's environment.
    # One BLAS thread, fixed before NumPy loads: per-update work is what
    # is measured, and a threaded GEMM on 2 cores only adds noise.
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[_var] = "1"
    # Planner decisions must not depend on a per-machine ~/.cache file.
    os.environ["REPRO_CALIBRATION"] = "off"
    # No transparent huge pages for this process and its children.  With
    # THP "always", whether a 2-32 MB temporary gets huge pages depends
    # on how fragmented the host's memory is at that moment: set-up time
    # of one workload swung 0.36-1.4 s and throughput ~30% run to run.
    try:
        import ctypes
        ctypes.CDLL(None).prctl(41, 1, 0, 0, 0)  # PR_SET_THP_DISABLE
    except (OSError, AttributeError):
        pass

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))
for _path in (os.path.join(_ROOT, "src"), os.path.dirname(_HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse
import gc
import json
import multiprocessing
import resource
import statistics
import subprocess
import tempfile
import threading
import time
import traceback

import numpy as np
import scipy.linalg  # noqa: F401 - loaded here so that no set-up pays for it
import scipy.sparse  # noqa: F401

from e2e import metrics, trace, workloads
from e2e.workloads import SPECS

DEFAULT_SEED = 14036968
DEFAULT_SECONDS = 8.0
#: Edits per candidate when timing planner regret.
REGRET_UPDATES = {"sparse_pagerank": 200, "zipf_write": 1024}

#: A timed run has at least this many throughput windows, so that its
#: quiet tenth (metrics.quiet_tenth) is several windows.
MIN_WINDOWS = 50

_now = time.perf_counter_ns

#: Everything a workload needs from the program; importing it is part
#: of ``setup_s`` (NumPy and SciPy are loaded before the clock starts).
_REPRO_MODULES = (
    "repro.frontend", "repro.runtime.session", "repro.runtime.serving",
    "repro.runtime.checkpoint", "repro.catalog", "repro.analytics.pagerank",
    "repro.workloads",
)


def import_program() -> float:
    """Import the program's modules; seconds taken (third parties excluded)."""
    import importlib

    start = time.perf_counter()
    for module in _REPRO_MODULES:
        importlib.import_module(module)
    return time.perf_counter() - start


# -- workloads ------------------------------------------------------------

class Workload:
    """One workload: generated inputs, the opened program, its oracle.

    ``prepare`` and ``prepare_stream`` are the generator side
    (untimed); ``open`` is the set-up a user pays (timed as part of
    ``setup_s``).
    """

    def __init__(self, spec: workloads.Spec, seed: int):
        self.spec = spec
        self.seed = seed
        self.n = spec.n

    def prepare(self) -> None:
        """Generate the inputs ``open`` needs."""
        raise NotImplementedError

    def prepare_stream(self) -> None:
        """Generate the update stream ``op`` replays."""
        raise NotImplementedError

    def open(self, recorder: trace.Recorder | None = None) -> None:
        raise NotImplementedError

    def op(self):
        """``f(i)``: apply the ``i``-th update of the replayed cycle."""
        raise NotImplementedError

    def read(self):
        """``f(j)``: the ``j``-th synchronous read."""
        raise NotImplementedError

    def drain(self) -> None:
        """Make every applied update readable (flush deferred work)."""

    def oracle_error(self, applied: int) -> float:
        """Largest relative error of any output against re-evaluation."""
        raise NotImplementedError

    def labels(self) -> dict:
        """Resolved planner decisions, shown beside the numbers."""
        return {}

    def counters(self) -> dict:
        """The program's own counters (sampled before and after a run)."""
        return {}

    def peak_rss_mb(self) -> float:
        """Resident-set high-water mark of the workload's process(es)."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def close(self) -> None:
        pass

    def _parse(self, source: str, recorder):
        from repro.frontend import parse_program

        if recorder is None:
            return parse_program(source)
        with recorder.span("frontend.parse"):
            return parse_program(source)


class ChainWorkload(Workload):
    """``B := A*A; C := B*B`` under one ``open_session`` configuration."""

    theta = None
    options: dict = {}

    def prepare(self) -> None:
        self.a0 = workloads.chain_input(self.seed, self.n)

    def prepare_stream(self) -> None:
        self.stream = workloads.ChainStream(self.seed, self.n, self.theta)

    def open(self, recorder=None) -> None:
        from repro.runtime.session import open_session

        self.program = self._parse(workloads.CHAIN_SOURCE, recorder)
        self.session = open_session(
            self.program, {"A": self.a0.copy()}, dims={"n": self.n},
            **self.options)

    def op(self):
        apply, updates, length = (self.session.apply_update,
                                  self.stream.updates, self.stream.length)
        return lambda i: apply(updates[i % length])

    def read(self):
        session = self.session
        return lambda j: session["C"]

    def drain(self) -> None:
        self.session.flush()

    def outputs(self) -> dict[str, np.ndarray]:
        return {name: self.session[name] for name in ("A", "B", "C")}

    def oracle_error(self, applied: int) -> float:
        want = workloads.chain_reference(
            self.stream.expected_input(self.a0, applied))
        got = self.outputs()
        return max(workloads.relative_error(got[name], want[name])
                   for name in want)

    def inner(self):
        """The session underneath any monitor."""
        return getattr(self.session, "session", self.session)

    def labels(self) -> dict:
        inner = self.inner()
        deferral = ("heavy-light" if inner.partition == "heavy-light"
                    else f"batch-{inner.batch_size}" if inner.batch_size > 1
                    else "unit")
        labels = {"plan": self.session.plan.label, "deferral": deferral}
        if hasattr(self.session, "switch_count"):
            labels["plan_switches"] = self.session.switch_count
        return labels

    def counters(self) -> dict:
        inner = self.inner()
        out = {}
        if inner.partition_stats is not None:
            out.update({f"hl_{k}": v for k, v in
                        inner.partition_stats.as_dict().items()})
        if inner.batch_stats is not None:
            out.update({f"batch_{k}": v for k, v in
                        inner.batch_stats.as_dict().items()})
        return out

    def close(self) -> None:
        close = getattr(getattr(self, "session", None), "close", None)
        if close is not None:
            close()


class DenseChain(ChainWorkload):
    options = {"plan": "incr", "mode": "codegen", "batch": "off",
               "partition": "uniform"}


class ZipfChain(ChainWorkload):
    theta = workloads.ZIPF_THETA
    options = {"plan": "auto", "replan": True,
               "refresh_count": workloads.ZIPF_REFRESH_COUNT}


class ShardedChain(ChainWorkload):
    options = {"plan": "incr", "nodes": (2,), "batch": "off",
               "partition": "uniform"}

    def counters(self) -> dict:
        engine = self.session.engine
        return {
            "comm_bytes": engine.comm.total_bytes,
            "comm_messages": engine.comm.total_messages,
            "worker_seconds": engine.worker_seconds(),
        }

    def peak_rss_mb(self) -> float:
        return super().peak_rss_mb() + sum(self.worker_rss_mb())

    @staticmethod
    def worker_rss_mb() -> list[float]:
        """Resident-set high-water mark of each live worker process."""
        peaks = []
        for child in multiprocessing.active_children():
            try:
                with open(f"/proc/{child.pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peaks.append(int(line.split()[1]) / 1024.0)
            except OSError:
                pass
        return peaks


class Served(ChainWorkload):
    """The dense_chain session behind a ``ViewServer``.

    Updates go through ``submit``; the synchronous read is the snapshot
    read, from a reader thread.  ``run_timed``/``run_traced`` drive this
    workload through :func:`served_phases` and not the closed loop.
    """

    options = dict(DenseChain.options, serve=workloads.SERVED_OPTIONS)

    def op(self):
        submit, updates, length = (self.session.submit, self.stream.updates,
                                   self.stream.length)
        return lambda i: submit(updates[i % length])

    def read(self):
        read = self.session.read
        return lambda j: read("C")

    def drain(self) -> None:
        self.session.refresh()

    def outputs(self) -> dict[str, np.ndarray]:
        return {"C": self.session.snapshot.views["C"]}

    def oracle_error(self, applied: int) -> float:
        want = workloads.chain_reference(
            self.stream.expected_input(self.a0, applied))
        return workloads.relative_error(self.outputs()["C"], want["C"])

    def labels(self) -> dict:
        return {"plan": self.session.plan.label, "deferral": "unit"}

    def counters(self) -> dict:
        stats = self.session.stats
        return dict(stats.as_dict(), refused=stats.shed + stats.rejected
                    + stats.discarded)


class CatalogTenants(Workload):
    def prepare(self) -> None:
        self.a0 = workloads.chain_input(self.seed, self.n)

    def prepare_stream(self) -> None:
        self.stream = workloads.ChainStream(self.seed, self.n)

    def open(self, recorder=None) -> None:
        from repro.catalog import ViewCatalog
        from repro.runtime.session import open_session

        self.catalog = ViewCatalog()
        self.tenants = [
            open_session(
                self._parse(workloads.tenant_source(index), recorder),
                {"A": self.a0.copy()} if index == 0 else None,
                dims={"n": self.n}, catalog=self.catalog)
            for index in range(workloads.TENANTS)
        ]

    def op(self):
        apply, updates, length = (self.catalog.apply_update,
                                  self.stream.updates, self.stream.length)
        return lambda i: apply(updates[i % length])

    def read(self):
        tenants = self.tenants
        return lambda j: tenants[j % len(tenants)]["P"]

    def drain(self) -> None:
        self.catalog.flush()

    def oracle_error(self, applied: int) -> float:
        want = workloads.chain_reference(
            self.stream.expected_input(self.a0, applied))
        return max(
            workloads.relative_error(
                tenant["P"], float(index + 2) * want["C"] + want["A"])
            for index, tenant in enumerate(self.tenants))

    def labels(self) -> dict:
        catalog = self.catalog
        return {"plan": f"{catalog.strategy}@{catalog.backend.name}/"
                        f"{catalog.mode}",
                "distinct_nodes": catalog.distinct_nodes}

    def counters(self) -> dict:
        return self.catalog.stats.as_dict()


class SparsePageRank(Workload):
    K = 16

    def prepare(self) -> None:
        self.adjacency = workloads.graph(self.seed, self.n)

    def prepare_stream(self) -> None:
        self.edits = workloads.EdgeToggles(self.seed, self.adjacency)

    def open(self, recorder=None, strategy="auto") -> None:
        from repro.analytics.pagerank import IncrementalPageRank

        self.driver = IncrementalPageRank(
            self.adjacency.copy(), k=self.K, strategy=strategy,
            backend="sparse")

    def op(self):
        add, remove = self.driver.add_edge, self.driver.remove_edge
        ops, length = self.edits.ops, self.edits.length

        def edit(i):
            is_add, source, target = ops[i % length]
            (add if is_add else remove)(source, target)

        return edit

    def read(self):
        driver = self.driver
        return lambda j: driver.ranks

    def oracle_error(self, applied: int) -> float:
        want = workloads.pagerank_reference(
            self.edits.expected_adjacency(applied), k=self.K)
        return workloads.relative_error(self.driver.ranks, want)

    def labels(self) -> dict:
        plan = self.driver.plan
        return {"plan": plan.label if plan is not None else "forced",
                "strategy": self.driver.strategy}


WORKLOADS = {
    "dense_small": DenseChain,
    "dense_chain": DenseChain,
    "sparse_pagerank": SparsePageRank,
    "zipf_write": ZipfChain,
    "zipf_read_mixed": ZipfChain,
    "served": Served,
    "catalog_tenants": CatalogTenants,
    "sharded_chain": ShardedChain,
}


def make_workload(name: str, seed: int, smoke: bool = False,
                  stream: bool = True) -> Workload:
    """A prepared workload: inputs generated, program not yet opened."""
    spec = SPECS[name].smoke() if smoke else SPECS[name]
    workload = WORKLOADS[name](spec, seed)
    workload.prepare()
    if stream:
        workload.prepare_stream()
    return workload


# -- load loops -----------------------------------------------------------

class LoopResult:
    """Raw samples of one closed-loop run."""

    def __init__(self, window: int):
        self.window = window
        self.update_ns: list[int] = []
        self.read_ns: list[int] = []
        self.bounds_ns: list[int] = []
        #: ``peak_rss_mb`` as read after the spec's ``rss_updates``.
        self.rss_mb: float | None = None
        self.failed = 0

    @property
    def updates(self) -> int:
        return len(self.update_ns)

    @property
    def attempted(self) -> int:
        return len(self.update_ns) + len(self.read_ns)

    @property
    def elapsed_s(self) -> float:
        return (self.bounds_ns[-1] - self.bounds_ns[0]) * 1e-9


def closed_loop(op, read, first: int, window: int, read_every: int,
                seconds: float, windows: int | None = None,
                tag=None, rss=None, rss_window: int = 0) -> LoopResult:
    """One caller: the next operation starts when the previous returned.

    Runs whole windows of ``window`` updates until ``seconds`` have
    passed and at least MIN_WINDOWS are in (or exactly ``windows``
    windows, stopping early only if ``seconds`` run out).  ``tag(i)``
    labels the spans of update ``i`` in a traced run; ``rss()`` is read
    once, when ``rss_window`` windows are in.
    """
    result = LoopResult(window)
    update_ns, read_ns = result.update_ns, result.read_ns
    index, reads = first, 0
    start = _now()
    deadline = start + int(seconds * 1e9)
    result.bounds_ns.append(start)
    while True:
        for _ in range(window):
            if tag is not None:
                tag(index)
            t0 = _now()
            try:
                op(index)
            except Exception:
                result.failed += 1
            update_ns.append(_now() - t0)
            index += 1
            if read_every and index % read_every == 0:
                t0 = _now()
                try:
                    read(reads)
                except Exception:
                    result.failed += 1
                read_ns.append(_now() - t0)
                reads += 1
        done = len(result.bounds_ns)
        if done == rss_window and rss is not None:
            result.rss_mb = rss()
        now = _now()
        result.bounds_ns.append(now)
        if windows is not None:
            if done >= windows or now >= deadline:
                return result
        elif now >= deadline and done >= MIN_WINDOWS:
            return result


class ServedResult(LoopResult):
    """Samples of the two served phases (open loop, then closed loop)."""

    def __init__(self, window: int):
        super().__init__(window)
        self.visible_ms: list[float] = []
        self.late_ms: list[float] = []
        self.open_updates = 0


def served_phases(w: Served, first: int, open_count: int, seconds: float,
                  windows: int | None = None) -> ServedResult:
    """Phase A: ``open_count`` submits on a fixed schedule, each timed
    from when it was *due*; phase B: blocking submits, closed loop.

    One reader thread polls ``snapshot``/``read("C")`` through both
    phases; its reads are the read samples, and the epochs it sees
    give each update's visibility time.
    """
    server = w.session
    result = ServedResult(w.spec.window)
    op, read = w.op(), w.read()
    publications: list[tuple[float, int]] = []
    stop = threading.Event()
    period = 1.0 / workloads.SERVED_POLL_HZ

    def reader():
        last, reads = -1, 0
        wake = time.perf_counter()
        while not stop.is_set():
            t0 = _now()
            snap = server.snapshot
            try:
                read(reads)
            except Exception:
                result.failed += 1
            result.read_ns.append(_now() - t0)
            reads += 1
            if snap.epoch != last:
                publications.append((snap.published_at, snap.seq))
                last = snap.epoch
            wake += period
            pause = wake - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            else:
                wake = time.perf_counter()

    base_seq = server.snapshot.seq
    thread = threading.Thread(target=reader, name="e2e-reader")
    thread.start()
    try:
        due = metrics.due_times(time.monotonic() + 0.005,
                                workloads.SERVED_RATE, open_count)
        sent = []
        for offset, planned in enumerate(due):
            pause = planned - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            sent.append(time.monotonic())
            try:
                op(first + offset)
            except Exception:
                result.failed += 1
        server.refresh()
        result.rss_mb = w.peak_rss_mb()
        closed = closed_loop(op, None, first + open_count, w.spec.window, 0,
                             seconds, windows)
        server.refresh()
    finally:
        stop.set()
        thread.join()
    final = server.snapshot
    publications.append((final.published_at, final.seq))
    publications.sort(key=lambda item: item[1])
    result.visible_ms = metrics.visibility_ms(due, publications, base_seq)
    # An update no epoch ever covered was lost: count it as failed.
    result.failed += closed.failed + open_count - len(result.visible_ms)
    result.late_ms = metrics.lateness_ms(due, sent)
    result.open_updates = open_count
    result.update_ns = closed.update_ns
    result.bounds_ns = closed.bounds_ns
    return result


# -- one workload, timed (tracing off) ------------------------------------

def _ms(ns_samples, want: float):
    return metrics.tail([ns * 1e-6 for ns in ns_samples], want)


def reference_s() -> float:
    """Seconds a fixed piece of work takes right now: how fast the box is.

    An interpreter loop and a few NumPy kernels, ~26 ms on the quiet
    box; see ``metrics.at_reference_speed``.
    """
    matrix = np.sin(np.arange(384.0 * 384.0)).reshape(384, 384)
    start = time.perf_counter()
    total = 0
    for index in range(150_000):
        total += index * index
    for _ in range(6):
        (matrix @ matrix).sum()
        np.linalg.norm(matrix + matrix.T)
    return time.perf_counter() - start


def set_up(name: str, seed: int, smoke: bool = False) -> tuple[Workload, dict]:
    """Import the program and open the workload in this process.

    Returns the opened workload (its stream not yet generated) and the
    ``setup_s`` sample: wall seconds, and the reference loop's seconds
    right before and after.
    """
    before = reference_s()
    import_s = import_program()
    w = make_workload(name, seed, smoke, stream=False)
    try:
        start = time.perf_counter()
        w.open()
        wall_s = import_s + time.perf_counter() - start
    except BaseException:
        w.close()
        raise
    return w, {"wall_s": wall_s, "reference_s": (before + reference_s()) / 2}


def adopt_orphans() -> None:
    """Make this process the parent of every descendant that loses its own.

    A workload's process may start others (``sharded_chain``: two
    workers and multiprocessing's resource tracker) that outlive it by a
    moment; as a subreaper this process inherits them, so that
    :func:`stop_descendants` can wait for each.
    """
    try:
        import ctypes
        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    # "pid (comm) state ppid ...": comm may hold spaces.
                    fields = stat.read().rpartition(")")[2].split()
            except OSError:
                continue
            if int(fields[1]) == me:
                found.append(int(entry))
    return found


def stop_descendants(grace_s: float = 5.0) -> None:
    """Stop every process this one started, and wait until each has ended.

    The resource tracker ends when its pipe closes; anything else gets
    ``grace_s`` seconds to end by itself and is then killed.  Returns
    when this process has no child left.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    stop = getattr(getattr(tracker, "_resource_tracker", None), "_stop", None)
    if stop is not None:
        try:
            stop()
        except OSError:
            pass
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for child in _children():
                try:
                    os.kill(child, 9)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def in_fresh_process(fn, *args):
    """``fn(*args)`` in a process forked from this one; its result.

    Forked while the program is not yet imported here, the process pays
    the program's imports, parse, compile, plan and open like any new
    process, but not the interpreter's and NumPy's start-up, which are
    not part of ``setup_s`` and take three times as long as what is
    measured.
    The result comes back as JSON.
    """
    if any(module in sys.modules for module in _REPRO_MODULES):
        raise RuntimeError("the program is already imported: not fresh")
    receive, send = os.pipe()
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(receive)
            with os.fdopen(send, "w") as pipe:
                json.dump(fn(*args), pipe)
            status = 0
        except BaseException:
            traceback.print_exc()
        finally:
            try:
                stop_descendants()
            finally:
                os._exit(status)  # the parent's exit handlers are not ours
    os.close(send)
    with os.fdopen(receive) as pipe:
        text = pipe.read()
    if os.waitpid(pid, 0)[1] != 0:
        raise RuntimeError(f"{fn.__name__}{args} failed in its process")
    return json.loads(text)


def setup_only(name: str, seed: int) -> dict:
    """The ``setup_s`` sample of this process: set up, then close."""
    w, sample = set_up(name, seed)
    w.close()
    return sample


def _warm_up(w: Workload) -> int:
    """Untimed prefix: caches filled, triggers compiled, workers up."""
    op, read = w.op(), w.read()
    for index in range(w.spec.warmup):
        op(index)
    read(0)
    w.drain()
    return w.spec.warmup


def measure_timed(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Set the workload up and measure it in this process."""
    w, setup = set_up(name, seed, smoke)
    spec = w.spec
    try:
        w.prepare_stream()
        first = _warm_up(w)
        before = w.counters()
        gc.collect()
        if isinstance(w, Served):
            open_count = max(int(workloads.SERVED_RATE * seconds / 2), 20)
            result = served_phases(w, first, open_count, seconds / 2)
            applied = first + open_count + result.updates
        else:
            result = closed_loop(w.op(), w.read(), first, spec.window,
                                 spec.read_every, seconds,
                                 rss=w.peak_rss_mb,
                                 rss_window=spec.rss_updates // spec.window)
            applied = first + result.updates
        # A run too short to reach ``rss_updates`` reads it at its end.
        rss_mb = w.peak_rss_mb() if result.rss_mb is None else result.rss_mb
        w.drain()
        after = w.counters()
        error = w.oracle_error(applied)
        labels = w.labels()
    finally:
        w.close()

    failed = result.failed + after.get("refused", 0) - before.get("refused", 0)
    attempted = result.attempted + getattr(result, "open_updates", 0)
    # Timings are whole-run figures: the median over equal-count
    # windows for the rate, every call for the latencies.
    rates = metrics.window_rates(result.bounds_ns, result.window)
    marks = range(0, result.updates + 1, result.window)
    window_p50_ms = [statistics.median(result.update_ns[a:b]) * 1e-6
                     for a, b in zip(marks, marks[1:])]
    quiet = max(1, len(rates) // 10)
    timings = {
        "updates_per_s": (statistics.median(rates), 50, len(rates)),
        "update_p50_ms": _ms(result.update_ns, 50),
        "update_p99_ms": _ms(result.update_ns, 99),
        "read_p50_ms": _ms(result.read_ns, 50),
        "read_p90_ms": _ms(result.read_ns, 90),
        "quiet_updates_per_s": (metrics.quiet_tenth(rates, highest=True), 50,
                                quiet),
        "quiet_update_p50_ms": (metrics.quiet_tenth(window_p50_ms), 50, quiet),
    }
    if isinstance(result, ServedResult):
        timings.update({
            "visible_p50_ms": metrics.tail(result.visible_ms, 50),
            "visible_p90_ms": metrics.tail(result.visible_ms, 90),
        })
    units = {row[0]: row[1] for row in metrics.E2E_DIAGNOSTICS}
    detail = {
        "workload": name, "why": spec.why, "loop": spec.loop, "seed": seed,
        "n": w.n, "trace": 0, "labels": labels, "applied": applied,
        "timed_s": result.elapsed_s,
        "oracle_rel_error": error,
        "attempted": attempted, "failed": failed,
        "failed_ops_frac": failed / max(attempted, 1),
        "setup_samples": [setup],
        "peak_rss_mb": rss_mb,
        "rss_after_updates": min(spec.rss_updates, result.updates),
        "timings": {key: {"value": value, "unit": units[key],
                          "percentile": used, "count": count}
                    for key, (value, used, count) in timings.items()},
    }
    if isinstance(result, ServedResult):
        detail["rss_after_updates"] = result.open_updates
        detail["served"] = {
            "visible_p95_ms": float(np.percentile(result.visible_ms, 95)),
            "visible_p99_ms": float(np.percentile(result.visible_ms, 99)),
            "generator_late_p50_ms": float(np.percentile(result.late_ms, 50)),
            "generator_late_p90_ms": float(np.percentile(result.late_ms, 90)),
            "generator_late_max_ms": float(max(result.late_ms)),
            "open_loop_rate_per_s": workloads.SERVED_RATE,
        }
    return detail


def run_timed(name: str, seed: int, seconds: float, smoke: bool) -> dict:
    """The timed run: the measurement in a fresh process of its own,
    between two rounds of fresh processes that only set the workload
    up, so the set-up samples span the whole run."""
    if smoke:
        detail = measure_timed(name, seed, seconds, smoke)
    else:
        rounds = SPECS[name].setups // 2
        early = [in_fresh_process(setup_only, name, seed)
                 for _ in range(rounds)]
        detail = in_fresh_process(measure_timed, name, seed, seconds, smoke)
        late = [in_fresh_process(setup_only, name, seed)
                for _ in range(rounds)]
        detail["setup_samples"] = early + detail["setup_samples"] + late
    setups = detail["setup_samples"]
    detail["samples"] = {"setup_s": {"percentile": 50, "count": len(setups)}}
    detail["setup_wall_s"] = statistics.median(
        sample["wall_s"] for sample in setups)
    values = {"setup_s": statistics.median(
                  metrics.at_reference_speed(**sample) for sample in setups),
              "peak_rss_mb": detail["peak_rss_mb"]}
    return finish(detail, values, metrics.E2E_METRICS,
                  detail["oracle_rel_error"], detail["attempted"],
                  detail["failed"])


# -- one workload, traced -------------------------------------------------

def _fixed_run(w: Workload, first: int, seconds: float, tag=None):
    """The traced run's fixed-count replay (also run untraced, to price
    tracing).  Returns ``(result, applied, t0, t1)``."""
    spec = w.spec
    gc.collect()
    t0 = _now()
    if isinstance(w, Served):
        open_count = spec.traced // 2
        result = served_phases(w, first, open_count, seconds,
                               windows=(spec.traced - open_count)
                               // spec.window)
        applied = first + open_count + result.updates
    else:
        result = closed_loop(w.op(), w.read(), first, spec.window,
                             spec.read_every, seconds,
                             windows=spec.traced // spec.window, tag=tag)
        applied = first + result.updates
    return result, applied, t0, _now()


def _quiet_rate(result: LoopResult) -> float:
    """Updates per second over the fastest tenth of the windows."""
    return metrics.quiet_tenth(
        metrics.window_rates(result.bounds_ns, result.window), highest=True)


def _time_candidate(w: Workload, updates: int) -> float:
    """Seconds per update of an opened candidate over a short prefix."""
    op, read = w.op(), w.read()
    for index in range(min(w.spec.warmup, updates)):
        op(index)
    w.drain()
    start = time.perf_counter()
    for index in range(updates):
        op(w.spec.warmup + index)
    read(0)
    return (time.perf_counter() - start) / updates


def planner_regret(w: Workload) -> tuple[float, dict]:
    """Chosen configuration's measured cost over the best of a fixed
    candidate set (1.0 = the planner chose the fastest candidate)."""
    name = w.spec.name
    updates = REGRET_UPDATES.get(name)
    if updates is None:
        return 0.0, {}
    if name == "sparse_pagerank":
        chosen = w.driver.strategy
        candidates = {strategy: {"strategy": strategy}
                      for strategy in ("REEVAL", "INCR", "HYBRID")}
    else:
        chosen = w.labels()["deferral"]
        chosen = "batch-32" if chosen.startswith("batch") else chosen
        candidates = {
            "unit": {"batch": "off", "partition": "uniform"},
            "batch-32": {"batch": 32, "partition": "uniform"},
            "heavy-light": {"batch": "off", "partition": "heavy-light"},
        }
    seconds = {}
    for label, options in candidates.items():
        candidate = make_workload(name, w.seed)
        try:
            if name == "sparse_pagerank":
                candidate.open(**options)
            else:
                candidate.options = {
                    "plan": "auto",
                    "refresh_count": workloads.ZIPF_REFRESH_COUNT, **options}
                candidate.open()
            seconds[label] = _time_candidate(candidate, updates)
        finally:
            candidate.close()
    return seconds[chosen] / min(seconds.values()), {
        "chosen": chosen,
        "seconds_per_update": seconds,
    }


def checkpoint_probe(w: ChainWorkload, repeats: int = 5) -> dict:
    """Cut and restore the final state a few times; medians, bitwise-checked."""
    from repro.runtime.checkpoint import (CheckpointManager, capture_session,
                                          restore_session)

    session = w.inner()
    session.flush()
    cuts, restores, size = [], [], 0
    # Inside the benchmark's directory: a run writes nowhere else.
    with tempfile.TemporaryDirectory(prefix="_tmp-ckpt-", dir=_HERE) as directory:
        manager = CheckpointManager(directory)
        for _ in range(repeats):
            start = time.perf_counter()
            header, arrays = capture_session(session)
            path = manager.save(header, arrays)
            cuts.append(time.perf_counter() - start)
            size = path.stat().st_size
            start = time.perf_counter()
            restored = restore_session(w.program, directory)
            restores.append(time.perf_counter() - start)
            for view in ("A", "B", "C"):
                if not np.array_equal(restored[view], session[view]):
                    raise AssertionError(
                        f"restored view {view} is not bitwise equal")
    return {"checkpoint.cut_ms": statistics.median(cuts) * 1e3,
            "checkpoint.restore_ms": statistics.median(restores) * 1e3,
            "checkpoint.bytes": size}


def run_traced(name: str, seed: int, seconds: float, smoke: bool,
               spans_out: str | None = None) -> dict:
    import_program()
    w = make_workload(name, seed, smoke)
    spec = w.spec
    recorder = trace.Recorder()
    overhead = trace.span_overhead_ns()
    extra: dict[str, float] = {}
    try:
        with trace.installed(recorder):
            w.open(recorder)
            opened = _now()
            cells = recorder.counts.get("planner.cells", 0)
            first = _warm_up(w)
            before = dict(w.counters(), **recorder.counts)
            result, applied, t0, t1 = _fixed_run(
                w, first, seconds, tag=recorder.set_update)
            after = dict(w.counters(), **recorder.counts)
            if isinstance(w, ShardedChain):
                extra["ipc.worker_peak_rss_mb"] = max(w.worker_rss_mb(),
                                                      default=0.0)
            w.drain()
        error = w.oracle_error(applied)
        labels = w.labels()
        if name == "dense_chain" and not smoke:
            extra.update(checkpoint_probe(w))
        if isinstance(w, Served):
            extra["copy_bytes"] = sum(
                view.nbytes for view in w.session.snapshot.views.values())
    finally:
        w.close()

    # The same replay with tracing off prices the tracing itself.
    plain = make_workload(name, seed, smoke)
    try:
        plain.open()
        untraced, _, _, _ = _fixed_run(plain, _warm_up(plain), seconds)
        regret, regret_detail = (0.0, {}) if smoke else planner_regret(plain)
    finally:
        plain.close()

    spans = recorder.spans(overhead)
    if spans_out:
        spans.dump(spans_out)
    updates = result.updates + getattr(result, "open_updates", 0)
    book = trace.ledger(spans, t0, t1, updates)
    kernels = trace.top_level_kernels(spans, t0, t1)
    delta = {key: after[key] - before.get(key, 0) for key in after
             if isinstance(after[key], (int, float))}
    wall_s = (t1 - t0) * 1e-9
    traced = spans.between(t0, t1)
    setup = spans.start < opened

    def mean_ms(name_: str, working_only: bool = False) -> float:
        chosen = spans.mask(name_) & traced
        return spans.mean_ms(chosen & spans.has_child if working_only
                             else chosen)

    def setup_ms(prefix: str) -> float:
        return spans.sum_ms(spans.outermost(prefix) & setup)

    def kernel_us(kernel: str) -> float:
        row = kernels.get("backend." + kernel)
        return row["total_ns"] / 1e3 / updates if row else 0.0

    values = {
        "frontend.parse_ms": setup_ms("frontend.parse"),
        "compiler.compile_ms": setup_ms("compiler.compile"),
        "compiler.fused_ms": setup_ms("compiler.fused"),
        "planner.plan_ms": setup_ms("planner."),
        "planner.cells": cells,
        "planner.regret": regret,
        "session.validate_us": book.total_us("session.validate"),
        "session.dispatch_self_us": book.self_us("session.apply_update"),
        # ``materialize`` is the read-side copy, not an update kernel
        # (on ``served`` its count follows the number of epochs).
        "backend.kernel_calls_per_update":
            sum(row["count"] for name_, row in kernels.items()
                if name_ != "backend.materialize") / updates,
        "backend.computed_flops_per_update": delta.get("flops", 0) / updates,
        "backend.computed_bytes_per_update": delta.get("bytes", 0) / updates,
        "views.write_us": (book.total_us("views.add_outer")
                           + book.total_us("views.add_in_place")),
        "views.read_copy_us": mean_ms("views.get_dense") * 1e3,
        "deferral.absorb_us": book.self_us("deferral.absorb"),
        "deferral.flush_ms": mean_ms("deferral.flush", working_only=True),
        "deferral.flushes": (delta.get("hl_folds", 0)
                             + delta.get("batch_flushes", 0)),
        "deferral.compact_ms": mean_ms("deferral.compact"),
        "deferral.heavy_hit_frac":
            delta.get("hl_heavy_hits", 0)
            / max(delta.get("hl_heavy_hits", 0)
                  + delta.get("hl_light_hits", 0), 1),
        "deferral.amortization":
            (delta.get("hl_heavy_hits", 0) + delta.get("hl_light_hits", 0))
            / max(delta.get("hl_heavy_folded_rank", 0)
                  + delta.get("hl_light_folded_rank", 0), 1),
        "drift.replan_ms": mean_ms("drift.replan"),
        "drift.replans": book.count("drift.replan"),
        "drift.forced_flushes": trace.spans_with_work_under(
            spans, "deferral.flush", "drift.replan", t0, t1),
        "serving.submit_us": book.total_us("serving.submit"),
        "serving.read_us": mean_ms("serving.read") * 1e3,
        "ipc.roundtrip_ms": mean_ms("ipc.roundtrip"),
        "ipc.messages_per_update": delta.get("comm_messages", 0) / updates,
        "ipc.bytes_per_update": delta.get("comm_bytes", 0) / updates,
        "catalog.apply_self_us": book.self_us("catalog.apply_update"),
        "catalog.node_refreshes_per_update":
            delta.get("node_refreshes", 0) / updates,
        "catalog.shared_hits": after.get("shared_hits", 0),
        "catalog.read_us": mean_ms("catalog.read") * 1e3,
        "catalog.demand_reads": delta.get("demand_reads", 0),
        "catalog.evictions": delta.get("evictions", 0),
        "analytics.edit_self_us": book.self_us("analytics."),
        "trace.unattributed_share": book.unattributed_share,
        "trace.overhead_share":
            1.0 - (_quiet_rate(result) / _quiet_rate(untraced)),
    }
    for kernel in ("matmul_into", "add_into", "scale_into",
                   "add_outer_inplace", "matmul", "add_outer", "compact"):
        values[f"backend.{kernel}_us"] = kernel_us(kernel)
    values["backend.kernel_share"] = book.share("backend.")
    for layer, prefixes in trace.LAYERS.items():
        values[f"{layer}.share"] = book.share(*prefixes)
    if isinstance(w, Served):
        epochs = max(delta.get("epochs", 0), 1)
        publish_ms = delta.get("publish_seconds", 0.0) / epochs * 1e3
        apply_ms = mean_ms("serving.apply")
        visible_p50 = metrics.tail(result.visible_ms, 50)[0]
        values.update({
            "serving.publish_ms": publish_ms,
            "serving.epochs": delta.get("epochs", 0),
            "serving.copy_bytes_per_epoch": extra["copy_bytes"],
            "serving.max_pending_at_publish":
                after.get("max_pending_at_publish", 0),
            # What is left of visibility once applying and publishing
            # are taken out: time queued or waiting for an epoch.
            "serving.queue_wait_ms":
                max(visible_p50 - apply_ms - publish_ms, 0.0),
        })
    if isinstance(w, ShardedChain):
        busy = [b - a for a, b in zip(before["worker_seconds"],
                                      after["worker_seconds"])]
        mean_busy = statistics.mean(busy)
        roundtrip_s = book.rows.get("ipc.roundtrip", {}).get("total_ns", 0) * 1e-9
        values.update({
            # Coordinator time inside roundtrips beyond the average
            # worker's compute: pickling, pipes, the slower worker.
            "ipc.wait_share": max(roundtrip_s - mean_busy, 0.0) / wall_s,
            "ipc.worker_busy_share": mean_busy / wall_s,
            "ipc.worker_skew": (max(busy) - min(busy)) / max(mean_busy, 1e-12),
            "ipc.worker_peak_rss_mb": extra["ipc.worker_peak_rss_mb"],
        })
    for key in ("checkpoint.cut_ms", "checkpoint.restore_ms",
                "checkpoint.bytes"):
        values[key] = extra.get(key, 0)
    values = {name_: float(values.get(name_, 0.0))
              for name_, _, _ in metrics.LAYER_METRICS}

    failed = result.failed + delta.get("refused", 0)
    attempted = result.attempted + getattr(result, "open_updates", 0)
    detail = {
        "workload": name, "why": spec.why, "loop": spec.loop, "seed": seed,
        "n": w.n, "trace": 1, "labels": labels, "applied": applied,
        "traced_updates": updates, "traced_s": wall_s,
        "counts_exact": updates == spec.traced,
        "traced_updates_per_s": updates / wall_s,
        "oracle_rel_error": error,
        "failed_ops_frac": failed / max(attempted, 1),
        "regret": regret_detail,
        "ledger": book.table(),
    }
    return finish(detail, values, metrics.LAYER_METRICS, error, attempted,
                  failed)


# -- reporting ------------------------------------------------------------

def finish(detail: dict, values: dict, declared, error: float,
           attempted: int, failed: int) -> dict:
    """Attach the contract's result object to the detailed one."""
    units = {row[0]: row[1] for row in declared}
    correct = bool(error <= workloads.ORACLE_RTOL and failed == 0)
    detail["result"] = {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
    }
    return detail


def report(detail: dict) -> None:
    """Every metric by name, with unit, percentile used and sample count."""
    result = detail["result"]
    labels = ", ".join(f"{k}={v}" for k, v in detail["labels"].items())
    mode = "traced" if detail["trace"] else "timed"
    print(f"== {detail['workload']} ({mode}, {detail['loop']} loop, "
          f"n={detail['n']}, seed={detail['seed']}) [{labels}]")
    print(f"   why: {detail['why']}")
    samples = detail.get("samples", {})
    for key, cell in result["metrics"].items():
        note = ""
        if key in samples and samples[key]["count"] > 1:
            note = (f"  (p{samples[key]['percentile']:g} of "
                    f"{samples[key]['count']} samples)")
        print(f"   {key:36} {cell['value']:16.6g} {cell['unit']}{note}")
    if "setup_wall_s" in detail:
        print(f"   {'setup_wall_s':36} {detail['setup_wall_s']:16.6g} s  "
              f"(setup_s before the box's speed is taken out; not gated)")
    for key, cell in detail.get("timings", {}).items():
        print(f"   {key:36} {cell['value']:16.6g} {cell['unit']}  "
              f"(p{cell['percentile']:g} of {cell['count']} samples; "
              f"not gated)")
    for key, value in detail.get("served", {}).items():
        print(f"   diag {key:31} {value:16.6g}")
    print(f"   {'failed_ops_frac':36} {detail['failed_ops_frac']:16.6g} ratio"
          f"  (of {result['attempted']} operations; must be 0)")
    if detail.get("regret"):
        print(f"   regret candidates: {detail['regret']}")
    if "ledger" in detail:
        print(detail["ledger"])
    print(f"   oracle rel. error {detail['oracle_rel_error']:.3e} "
          f"(limit {workloads.ORACLE_RTOL:g})"
          f" -> {'correct' if result['correct'] else 'WRONG'}")


def run_one(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool = False, spans_out: str | None = None) -> dict:
    """One workload in this process (the contract's unit of work)."""
    if traced:
        return run_traced(name, seed, seconds, smoke, spans_out)
    return run_timed(name, seed, seconds, smoke)


def run_child(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a fresh subprocess; its detailed result."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced)), "--detail"],
        capture_output=True, text=True, timeout=300)
    for line in done.stdout.splitlines():
        if line.startswith("DETAIL "):
            return json.loads(line[len("DETAIL "):])
    raise RuntimeError(f"{name} (trace={int(traced)}) gave no result:\n"
                       f"{done.stdout}\n{done.stderr}")


def run_set(seed: int, seconds: float, names=None) -> dict:
    """Every workload, timed then traced, each in a fresh subprocess."""
    out = {}
    for name in names or SPECS:
        out[name] = {"timed": run_child(name, seed, seconds, False),
                     "traced": run_child(name, seed, seconds, True)}
        report(out[name]["timed"])
        report(out[name]["traced"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--json", help="write the full result here")
    parser.add_argument("--spans", help="write the traced run's spans (.npz)")
    parser.add_argument("--smoke", action="store_true",
                        help="sub-second sizes, one set-up")
    parser.add_argument("--detail", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print(f"bench_e2e: no program to measure under {_ROOT}/src",
              file=sys.stderr)
        return 2
    adopt_orphans()
    try:
        return _run(args)
    finally:
        # On every way out: no process of this run is left behind.
        stop_descendants()


def _run(args) -> int:
    if args.workload is None:
        results = run_set(args.seed, args.seconds)
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(results, handle, indent=1)
        return 0 if all(run["result"]["correct"]
                        for pair in results.values()
                        for run in pair.values()) else 1

    details = {}
    for mode in (0, 1) if args.trace is None else (args.trace,):
        detail = run_one(args.workload, args.seed, args.seconds, bool(mode),
                         smoke=args.smoke, spans_out=args.spans)
        details["traced" if mode else "timed"] = detail
        report(detail)
        if args.detail:
            print("DETAIL " + json.dumps(detail))
        # The contract's result: the last line of standard output.
        print(json.dumps(detail["result"]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(details, handle, indent=1)
    return 0 if all(d["result"]["correct"] for d in details.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
