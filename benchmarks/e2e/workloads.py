"""The eight workloads: their sizes, why each is here, and their inputs.

Inputs and update streams are made up front from the seed, out of a
shared pool of vectors, so the generator's time and memory stay out of
the measurement; the program only ever sees the generated inputs.  The
same seed gives the same inputs.

Every stream is a *cycle* that sums to zero (each rank-1 update is
undone later in the cycle, each edge toggle is toggled back), so a run
may replay it for as long as the clock says without the maintained
matrices growing, and the oracle knows the exact expected state after
any number of operations.

Importing this module starts nothing; ``repro`` is imported inside the
functions that need it, so the benchmark can time that import.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

CHAIN_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"

#: Expected stream length handed to the planner by the zipf workloads
#: (both open the identical session).
ZIPF_REFRESH_COUNT = 36000
ZIPF_THETA = 1.5

#: Tenants of ``catalog_tenants``; tenant ``i`` adds ``P := c_i*C + A``.
TENANTS = 8

#: ``served``: open-loop rate, reader poll rate, server configuration.
SERVED_RATE = 200.0
SERVED_POLL_HZ = 2000.0
SERVED_OPTIONS = {"views": ("C",), "max_staleness": 8, "max_queue": 64,
                  "overload": "block"}

#: Largest relative error the oracle accepts.
ORACLE_RTOL = 1e-8


@dataclass(frozen=True)
class Spec:
    """One workload's fixed shape and the counts tuned to the run length."""

    name: str
    why: str
    #: ``closed``: one caller, next operation after the previous one
    #: returns.  ``open+closed``: a scheduled phase, then a closed one.
    loop: str
    n: int
    #: Updates per throughput window (25-50 ms here, so a run has
    #: 250-450 windows).
    window: int
    #: One read after this many updates.
    read_every: int
    #: Untimed updates before measuring (caches, heavy set, workers).
    warmup: int
    #: Updates of the traced run: fixed, so that counts repeat exactly.
    traced: int
    #: ``peak_rss_mb`` is read once this many timed updates are in (a
    #: multiple of ``window``, below what the slowest run reaches), so
    #: it does not depend on how many updates the box managed
    #: (``served`` reads it when its scheduled phase, a fixed count, ends).
    rss_updates: int
    #: Fresh processes that set the workload up besides the run's own;
    #: ``setup_s`` is the median over all of them.
    setups: int = 12

    def smoke(self) -> "Spec":
        """The same workload at sub-second size (harness self-test)."""
        window = max(self.window // 4, 4)
        return replace(self, n=min(self.n, 32), window=window,
                       warmup=max(self.warmup // 16, 4),
                       traced=max(self.traced // 16, 16),
                       rss_updates=2 * window)


SPECS = {spec.name: spec for spec in (
    Spec("dense_small",
         "Dispatch-bound: tiny kernels (n=128), so Session.apply_update glue "
         "and the fused trigger call dominate; a glue change must show here.",
         "closed", n=128, window=512, read_every=256, warmup=2048,
         traced=16384, rss_updates=65536),
    Spec("dense_chain",
         "Kernel- and memory-bound (n=512): backends.dense does nearly all "
         "the work; deferral, serving and IPC do none - the bypass workload.",
         "closed", n=512, window=32, read_every=32, warmup=64, traced=1536,
         rss_updates=4096),
    Spec("sparse_pagerank",
         "Only workload through analytics, iterative and backends.sparse, "
         "with the planner choosing the strategy, so planner regret is a "
         "number.",
         "closed", n=2048, window=16, read_every=16, warmup=32, traced=1024,
         rss_updates=2048, setups=8),
    Spec("zipf_write",
         "Write-heavy Zipf(1.5) stream, one read per 1024 updates: the "
         "deferral layer and the replan monitor do most of the work.",
         "closed", n=512, window=256, read_every=1024, warmup=512,
         traced=8192, rss_updates=16384),
    Spec("zipf_read_mixed",
         "Same session and stream read every 8 updates: every read forces a "
         "flush, so a deferral change that helps writes and costs reads "
         "shows.",
         "closed", n=512, window=64, read_every=8, warmup=256, traced=4096,
         rss_updates=8192),
    Spec("served",
         "ViewServer over the dense_chain session: ingress queue, snapshot "
         "copy and epoch publish are the only difference from dense_chain.",
         "open+closed", n=512, window=32, read_every=0, warmup=64,
         traced=1024, rss_updates=0),
    Spec("catalog_tenants",
         "Eight tenants on one ViewCatalog (10 distinct nodes): catalog "
         "fan-out and interpret-mode execution over a lineage DAG.",
         "closed", n=256, window=32, read_every=16, warmup=32, traced=768,
         rss_updates=2048),
    Spec("sharded_chain",
         "The chain on 2 worker processes (n=1024): pipe and shared-memory "
         "IPC that no other workload touches; absolute numbers, no scaling "
         "claim.",
         "closed", n=1024, window=4, read_every=4, warmup=8, traced=96,
         rss_updates=256, setups=8),
)}


def tenant_source(index: int) -> str:
    """The shared chain plus tenant ``index``'s private statement."""
    return (f"input A(n, n); B := A * A; C := B * B; "
            f"P := {float(index + 2):g} * C + A; output P;")


def chain_input(seed: int, n: int) -> np.ndarray:
    """The initial ``A``: spectral radius well below 1, so ``A^4`` is tame."""
    rng = np.random.default_rng([seed, n, 0])
    return 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)


class ChainStream:
    """A zero-sum cycle of prebuilt rank-1 row updates to ``A``.

    The first half draws ``(row, vector)`` pairs — rows uniform or
    Zipf(theta) — and the second half replays the same pairs, shuffled,
    with the vector negated.  Updates share the pool's arrays: 512
    indicator ``u`` vectors and at most 4096 ``v`` vectors.
    """

    def __init__(self, seed: int, n: int, theta: float | None = None,
                 length: int = 8192, scale: float = 0.01):
        from repro.runtime.updates import FactoredUpdate
        from repro.workloads.zipf import sample_rows

        rng = np.random.default_rng([seed, n, 1])
        half = length // 2
        pool_rows = (np.arange(n) if n <= 512
                     else np.sort(rng.choice(n, 512, replace=False)))
        vectors = min(2048, 2 ** 20 // n, half)
        positive = scale * rng.standard_normal((vectors, n))
        self.v_pool = np.concatenate([positive, -positive])
        if theta is None:
            slots = rng.integers(len(pool_rows), size=half)
        else:
            # Zipf rows index the matrix directly, so the pool must
            # cover every row (true for the n <= 512 zipf workloads).
            slots = sample_rows(rng, len(pool_rows), half, theta)
        picks = rng.integers(vectors, size=half)
        undo = rng.permutation(half)
        slots = np.concatenate([slots, slots[undo]])
        self.rows = pool_rows[slots]
        self.vectors = np.concatenate([picks, picks[undo] + vectors])
        self.n = n
        self.length = length
        u_pool = np.zeros((len(pool_rows), n))
        u_pool[np.arange(len(pool_rows)), pool_rows] = 1.0
        self.updates = [
            FactoredUpdate("A", u_pool[slot].reshape(n, 1),
                           self.v_pool[vector].reshape(n, 1))
            for slot, vector in zip(slots, self.vectors)
        ]

    def expected_input(self, a0: np.ndarray, applied: int) -> np.ndarray:
        """``A`` after the first ``applied`` updates of the replayed cycle."""
        done = applied % self.length
        expected = a0.copy()
        np.add.at(expected, self.rows[:done], self.v_pool[self.vectors[:done]])
        return expected


def chain_reference(a: np.ndarray) -> dict[str, np.ndarray]:
    """From-scratch re-evaluation of the chain program in plain NumPy."""
    b = a @ a
    return {"A": a, "B": b, "C": b @ b}


def graph(seed: int, n: int, degree: float = 20.0) -> np.ndarray:
    """The initial adjacency matrix (column = source node)."""
    from repro.workloads.generators import random_adjacency

    return random_adjacency(np.random.default_rng([seed, n, 2]), n, degree)


class EdgeToggles:
    """A cycle of edge toggles that restores the graph it starts from.

    The first half toggles random ``source -> target`` pairs (adding
    the edge when absent, removing it when present), the second half
    toggles the same pairs back in shuffled order.  No toggle ever
    removes a node's last out-edge, so no column turns dangling (a
    dangling column is dense and would change what is measured).
    """

    def __init__(self, seed: int, adjacency: np.ndarray, length: int = 4096):
        self.adjacency = adjacency
        self.n = n = adjacency.shape[0]
        self.length = length
        rng = np.random.default_rng([seed, n, 3])
        half = length // 2
        while True:
            sources = rng.integers(n, size=half)
            targets = (sources + rng.integers(1, n, size=half)) % n
            undo = rng.permutation(half)
            pairs = np.column_stack([
                np.concatenate([sources, sources[undo]]),
                np.concatenate([targets, targets[undo]]),
            ])
            ops = self._simulate(pairs)
            if ops is not None:
                self.ops = ops
                return

    def _simulate(self, pairs):
        """``(is_add, source, target)`` per toggle, or ``None`` when some
        toggle would leave a node without out-edges."""
        adjacency = self.adjacency.copy()
        out_degree = adjacency.sum(axis=0)
        ops = []
        for source, target in pairs.tolist():
            is_add = adjacency[target, source] == 0
            if not is_add and out_degree[source] <= 1:
                return None
            adjacency[target, source] = 1.0 if is_add else 0.0
            out_degree[source] += 1 if is_add else -1
            ops.append((is_add, source, target))
        return ops

    def expected_adjacency(self, applied: int) -> np.ndarray:
        """The graph after the first ``applied`` toggles of the cycle."""
        adjacency = self.adjacency.copy()
        for is_add, source, target in self.ops[:applied % self.length]:
            adjacency[target, source] = 1.0 if is_add else 0.0
        return adjacency


def pagerank_reference(adjacency: np.ndarray, k: int = 16,
                       damping: float = 0.85) -> np.ndarray:
    """``k`` power iterations from scratch in plain NumPy (no dangling
    columns by construction of :class:`EdgeToggles`)."""
    n = adjacency.shape[0]
    transition = adjacency / adjacency.sum(axis=0, keepdims=True)
    ranks = np.full((n, 1), 1.0 / n)
    for _ in range(k):
        ranks = damping * (transition @ ranks) + (1.0 - damping) / n
    return ranks


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    """Largest absolute difference over the reference's largest entry."""
    got = np.asarray(got, dtype=np.float64)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.max(np.abs(want))) or 1.0
    return float(np.max(np.abs(got - want))) / scale
