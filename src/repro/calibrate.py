"""Microbenchmark-driven calibration of the planner's cost constants.

The cost model (:mod:`repro.cost.estimate`, :mod:`repro.planner`) ranks
maintenance configurations through each backend's ``est_*`` hooks, whose
constant factors — per-kernel-call overhead and the sparse-kernel
per-FLOP penalty — ship as fixed class constants
(:attr:`~repro.backends.base.Backend.est_call_overhead_flops`,
:attr:`~repro.backends.sparse.SparseBackend.est_overhead`).  LINVIEW's
own evaluation shows the dense/sparse and IVM/re-eval crossover points
are machine-dependent: a laptop with slow BLAS and a server with fast
MKL put the boundary at different densities, so hard-coded constants
mis-plan exactly the workloads near the boundary.

This module closes the loop the way adaptive query processors do: it
**times the backends' core kernels** (``matmul``, ``add_outer``, sparse
matvec and CSR row slicing) at a few sizes and densities on the current
machine, **fits** per-backend throughput, call overhead, and the sparse
per-FLOP penalty from those samples, and **caches** the fit as JSON
keyed by the platform + library versions so later sessions load it for
free.  The planner (:func:`repro.planner.plan_program`, the advisor's
backend grid) auto-loads the cache; ``repro calibrate`` runs the pass
from the CLI.

Cache resolution order:

* an explicit ``path`` argument;
* ``$REPRO_CALIBRATION`` (a file path, or ``off`` to disable);
* ``~/.cache/linview-repro/calibration.json``.

A cache whose key does not match the current machine fingerprint is
treated as absent (stale-key invalidation), so upgrading NumPy/SciPy or
moving the cache between machines silently falls back to the shipped
constants until ``repro calibrate`` is re-run.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

# Where the cache lives and the planners' resolver sit with the backend
# registry, so that planning without a cache file never loads this module.
from .backends import (
    CACHE_ENV,
    Backend,
    calibrated,
    default_cache_path,
    get_backend,
)

#: Cache schema version (bump on incompatible layout changes).
SCHEMA = 1

#: Clamp range for fitted per-call overhead (dense-FLOP equivalents).
#: Guards against clock jitter producing absurd constants.
OVERHEAD_FLOPS_RANGE = (100.0, 1e7)

#: Clamp range for the fitted sparse streaming-kernel per-FLOP penalty.
SPARSE_OVERHEAD_RANGE = (1.0, 64.0)

#: Clamp range for the structure-mutating (``add_outer``) penalty; CSR
#: merges genuinely cost hundreds of dense FLOPs per touched entry.
SPARSE_UPDATE_OVERHEAD_RANGE = (1.0, 512.0)

#: Clamp range for the sparse x sparse product penalty — spgemm's
#: allocate/gather/sort work measures at 1-2 orders of magnitude above
#: the expected multiply-add count.
SPARSE_SPGEMM_OVERHEAD_RANGE = (1.0, 1024.0)

#: Clamp range for the in-place call-overhead discount (the fraction of
#: per-call cost an ``out=`` kernel still pays: 1.0 = no saving).
INPLACE_DISCOUNT_RANGE = (0.05, 1.0)

#: Clamp range for state-conversion passes per stored entry (the
#: re-planning switch cost constant).  CSR construction genuinely
#: costs dozens-to-hundreds of dense-FLOP equivalents per scanned
#: entry (full scan + structure build), hence the wide top.
CONVERT_PASSES_RANGE = (0.25, 256.0)

#: Clamp range for the QR+SVD compaction constant (the ``m^3`` factor
#: of :func:`repro.cost.estimate.compaction_cost`).  LAPACK's small-core
#: SVD measures tens-to-thousands of m^3 passes once dispatch overhead
#: is folded in at the widths batches actually use.
COMPACTION_FACTOR_RANGE = (2.0, 20_000.0)

#: Clamp range for the fitted per-IPC-round-trip cost (dense-FLOP
#: equivalents): a spawn-pipe message costs ~10 microseconds of
#: latency, i.e. 1e4-1e6 FLOPs on ordinary machines.
IPC_CALL_FLOPS_RANGE = (1e3, 1e7)

#: Clamp range for the fitted dense-FLOP-per-pipe-byte cost
#: (~flop_rate / pipe bandwidth; pipes move GB/s, BLAS does GFLOP/s).
IPC_FLOPS_PER_BYTE_RANGE = (0.05, 50.0)


def cache_key() -> str:
    """Fingerprint the cached constants are valid for.

    Machine + OS + Python + NumPy/SciPy versions: any of these changing
    can move kernel constant factors, so any of them changing must
    invalidate the cache.
    """
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - exercised on the no-scipy leg
        scipy_version = "none"
    return "/".join((
        platform.machine() or "unknown",
        platform.system() or "unknown",
        platform.python_version(),
        f"numpy-{np.__version__}",
        f"scipy-{scipy_version}",
        f"schema-{SCHEMA}",
    ))


@dataclass(frozen=True)
class KernelSample:
    """One timed kernel invocation: what ran, how long, model FLOPs."""

    kernel: str
    seconds: float
    model_flops: float


@dataclass(frozen=True)
class BackendCalibration:
    """Fitted cost constants for one backend on one machine."""

    backend: str
    #: Sustained dense-equivalent throughput (large-kernel FLOPs/s).
    flops_per_second: float
    #: Fixed cost of one kernel invocation, in dense-FLOP equivalents
    #: (replaces :attr:`Backend.est_call_overhead_flops`).
    call_overhead_flops: float
    #: Per-FLOP penalty of sparse *streaming* kernels vs dense BLAS
    #: (replaces :attr:`SparseBackend.est_overhead`); ``None`` for dense
    #: backends.
    sparse_overhead: float | None = None
    #: Per-FLOP penalty of structure-mutating sparse updates (replaces
    #: :attr:`SparseBackend.est_update_overhead`); ``None`` for dense.
    sparse_update_overhead: float | None = None
    #: Per-FLOP penalty of sparse x sparse products (replaces
    #: :attr:`SparseBackend.est_spgemm_overhead`); ``None`` for dense.
    sparse_spgemm_overhead: float | None = None
    #: Measured fraction of the call overhead an ``out=`` kernel still
    #: pays (replaces :attr:`Backend.est_inplace_discount`): the
    #: in-place vs out-of-place gap lowered triggers bank on.
    inplace_discount: float | None = None
    #: Measured state-conversion passes per stored entry (replaces
    #: :attr:`Backend.est_convert_passes_per_entry`; prices the
    #: re-planning switch, see :class:`ReplanMonitor`).
    convert_passes_per_entry: float | None = None
    #: Measured ``m^3`` constant of the QR+SVD batch compaction
    #: (replaces :attr:`Backend.est_compaction_factor`; prices
    #: :func:`repro.cost.estimate.compaction_cost` and with it every
    #: plan's recommended batch width).
    compaction_factor: float | None = None
    #: Measured cost of one coordinator->worker pipe round trip, in
    #: dense-FLOP equivalents (replaces
    #: :attr:`Backend.est_ipc_call_flops`; prices the sharded cells of
    #: the planner grid via :meth:`Backend.est_broadcast`).
    ipc_call_flops: float | None = None
    #: Measured dense-FLOP equivalents per pipe byte (replaces
    #: :attr:`Backend.est_ipc_flops_per_byte`).
    ipc_flops_per_byte: float | None = None
    #: The raw measurements the fit came from (kept for reporting).
    samples: tuple[KernelSample, ...] = field(default=())

    def apply(self, be: Backend) -> Backend:
        """Overwrite ``be``'s estimate constants with the fitted ones.

        Mutates (and returns) ``be`` — callers who must not disturb
        shared instances should pass a copy (see :func:`calibrated`).
        """
        be.est_call_overhead_flops = float(self.call_overhead_flops)
        if self.sparse_overhead is not None and hasattr(be, "est_overhead"):
            be.est_overhead = float(self.sparse_overhead)
        if (self.sparse_update_overhead is not None
                and hasattr(be, "est_update_overhead")):
            be.est_update_overhead = float(self.sparse_update_overhead)
        if (self.sparse_spgemm_overhead is not None
                and hasattr(be, "est_spgemm_overhead")):
            be.est_spgemm_overhead = float(self.sparse_spgemm_overhead)
        if self.inplace_discount is not None:
            be.est_inplace_discount = float(self.inplace_discount)
        if self.convert_passes_per_entry is not None:
            be.est_convert_passes_per_entry = float(
                self.convert_passes_per_entry
            )
        if self.compaction_factor is not None:
            be.est_compaction_factor = float(self.compaction_factor)
        if self.ipc_call_flops is not None:
            be.est_ipc_call_flops = float(self.ipc_call_flops)
        if self.ipc_flops_per_byte is not None:
            be.est_ipc_flops_per_byte = float(self.ipc_flops_per_byte)
        return be

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "flops_per_second": self.flops_per_second,
            "call_overhead_flops": self.call_overhead_flops,
            "sparse_overhead": self.sparse_overhead,
            "sparse_update_overhead": self.sparse_update_overhead,
            "sparse_spgemm_overhead": self.sparse_spgemm_overhead,
            "inplace_discount": self.inplace_discount,
            "convert_passes_per_entry": self.convert_passes_per_entry,
            "compaction_factor": self.compaction_factor,
            "ipc_call_flops": self.ipc_call_flops,
            "ipc_flops_per_byte": self.ipc_flops_per_byte,
            "samples": [
                {"kernel": s.kernel, "seconds": s.seconds,
                 "model_flops": s.model_flops}
                for s in self.samples
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "BackendCalibration":
        def _opt(name: str) -> float | None:
            value = data.get(name)
            return None if value is None else float(value)

        return cls(
            backend=str(data["backend"]),
            flops_per_second=float(data["flops_per_second"]),
            call_overhead_flops=float(data["call_overhead_flops"]),
            sparse_overhead=_opt("sparse_overhead"),
            sparse_update_overhead=_opt("sparse_update_overhead"),
            sparse_spgemm_overhead=_opt("sparse_spgemm_overhead"),
            inplace_discount=_opt("inplace_discount"),
            convert_passes_per_entry=_opt("convert_passes_per_entry"),
            compaction_factor=_opt("compaction_factor"),
            ipc_call_flops=_opt("ipc_call_flops"),
            ipc_flops_per_byte=_opt("ipc_flops_per_byte"),
            samples=tuple(
                KernelSample(str(s["kernel"]), float(s["seconds"]),
                             float(s["model_flops"]))
                for s in data.get("samples", ())
            ),
        )


@dataclass(frozen=True)
class Calibration:
    """A full calibration run: per-backend constants plus the cache key."""

    key: str
    backends: Mapping[str, BackendCalibration]

    def get(self, name: str) -> BackendCalibration | None:
        return self.backends.get(name)

    def apply(self, be: Backend) -> Backend:
        """Apply this calibration's constants to ``be`` (mutating it)."""
        entry = self.backends.get(be.name)
        return entry.apply(be) if entry is not None else be

    def as_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "key": self.key,
            "backends": {name: cal.as_dict()
                         for name, cal in sorted(self.backends.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Calibration":
        return cls(
            key=str(data["key"]),
            backends={
                name: BackendCalibration.from_dict(entry)
                for name, entry in data.get("backends", {}).items()
            },
        )

    def save(self, path: "Path | str | None" = None) -> Path:
        """Write the cache file (creating parent directories)."""
        target = Path(path) if path is not None else default_cache_path()
        if target is None:
            raise ValueError(
                f"calibration cache disabled via ${CACHE_ENV}; "
                "pass an explicit path"
            )
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return target


def load_calibration(path: "Path | str | None" = None) -> Calibration | None:
    """Load the cached calibration, or ``None`` when absent/stale/invalid.

    A cache written under a different :func:`cache_key` (other machine,
    other library versions) is *stale* and ignored — the planner then
    runs on the shipped class constants until recalibration.
    """
    target = Path(path) if path is not None else default_cache_path()
    if target is None or not target.exists():
        return None
    try:
        data = json.loads(target.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("schema") != SCHEMA:
        return None
    if data.get("key") != cache_key():
        return None  # stale: fingerprint mismatch
    try:
        return Calibration.from_dict(data)
    except (KeyError, TypeError, ValueError):
        return None


# -- auto-loading for the planner -----------------------------------------

#: Memoized result of :func:`load_calibration` at the default path.
#: ``False`` = not looked up yet (distinct from "looked up, absent").
_AUTOLOADED: "Calibration | None | bool" = False


def autoload(refresh: bool = False) -> Calibration | None:
    """The default-path calibration, loaded once per process.

    ``refresh=True`` re-reads the file (tests, post-``repro calibrate``).
    """
    global _AUTOLOADED
    if refresh or _AUTOLOADED is False:
        _AUTOLOADED = load_calibration()
    return _AUTOLOADED


# -- measurement -----------------------------------------------------------

def _best_seconds(fn: Callable[[], object], repeats: int,
                  inner: int = 1) -> float:
    """Minimum per-call seconds over ``repeats`` timed batches.

    The minimum (not mean) estimates the cost with the least scheduler
    noise — standard microbenchmark practice; ``inner`` batches very
    short kernels so each sample is well above timer resolution.
    """
    best = float("inf")
    for _ in range(max(repeats, 1)):
        start = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - start) / inner)
    return best


def _clamp(value: float, bounds: tuple[float, float]) -> float:
    return float(min(max(value, bounds[0]), bounds[1]))


def _fit_inplace_discount(be: Backend, rng, gap_n: int, repeats: int,
                          samples: list) -> float:
    """In-place vs out-of-place gap of one ``A += u v'`` apply.

    Times copy-the-view-then-accumulate against accumulate-in-place;
    their ratio is the fraction of per-call cost the in-place path
    still pays — the discount the planner applies to codegen-mode
    cells.  Since views became store-owned (every mode accumulates in
    place, :mod:`repro.runtime.views`) no execution path performs the
    copying variant any more: the discount now stands in for the
    per-call overhead gap between allocating and ``*_into`` kernels
    only, and this protocol over-states it.  Constants and fit are
    deliberately unchanged here (plan decisions must not move with the
    storage change); re-fitting on the per-call gap is a ROADMAP
    follow-up.  Shared by the dense and sparse fits: the sparse
    backend's allocation-free wins live on its dense legs, so the
    protocol is identical.
    """
    gap_state = rng.standard_normal((gap_n, gap_n))
    gap_u = rng.standard_normal((gap_n, 1))
    gap_v = 0.01 * rng.standard_normal((gap_n, 1))
    apply_flops = float(2 * gap_n * gap_n)
    t_cow = _best_seconds(
        lambda: be.add_outer(gap_state.copy(), gap_u, gap_v), repeats,
        inner=16)
    t_inplace = _best_seconds(
        lambda: be.add_outer_inplace(gap_state, gap_u, gap_v), repeats,
        inner=16)
    samples.append(KernelSample(f"apply copy-on-write[{gap_n}]", t_cow,
                                apply_flops))
    samples.append(KernelSample(f"apply in-place[{gap_n}]", t_inplace,
                                apply_flops))
    return _clamp(t_inplace / max(t_cow, 1e-9), INPLACE_DISCOUNT_RANGE)


def _fit_compaction(be: Backend, rng, fps: float, repeats: int,
                    samples: list, n: int = 256,
                    width: int = 48) -> float:
    """The QR+SVD compaction's ``m^3`` constant, from a timed compact.

    :func:`repro.cost.estimate.compaction_cost` models a flush as
    ``4 (rows + cols) m^2`` (thin QRs + factor rebuild) plus
    ``factor * m^3`` (the small core SVD and everything per-width the
    quadratic terms miss).  Timing :meth:`Backend.compact` at a width
    big enough to swamp dispatch noise and subtracting the quadratic
    model at the fitted throughput leaves the cubic residual.
    """
    u = rng.standard_normal((n, width))
    v = rng.standard_normal((n, width))
    t = _best_seconds(lambda: be.compact(u, v, 1e-12), repeats, inner=4)
    quad_flops = 4.0 * (n + n) * width * width
    samples.append(KernelSample(f"compact[{n},m={width}]", t,
                                quad_flops + 22.0 * width ** 3))
    residual = max(t * fps - quad_flops, 0.0)
    return _clamp(residual / float(width) ** 3, COMPACTION_FACTOR_RANGE)


def _fit_dense(be: Backend, repeats: int, big_n: int,
               tiny_n: int) -> BackendCalibration:
    rng = np.random.default_rng(1403_6968)
    big_a = rng.standard_normal((big_n, big_n))
    big_b = rng.standard_normal((big_n, big_n))
    tiny_a = rng.standard_normal((tiny_n, tiny_n))
    tiny_b = rng.standard_normal((tiny_n, tiny_n))

    samples = []
    big_flops = float(2 * big_n ** 3)
    t_big = _best_seconds(lambda: be.matmul(big_a, big_b), repeats)
    samples.append(KernelSample(f"matmul[{big_n}x{big_n}]", t_big, big_flops))
    fps = big_flops / max(t_big, 1e-9)

    # Tiny kernels are dominated by dispatch/allocation: subtracting
    # their model FLOPs at the fitted throughput leaves the call cost.
    # (Large kernels would fold memory-bandwidth effects into the call
    # constant, so only genuinely tiny operands qualify here.)
    overhead_estimates = []
    tiny_flops = float(2 * tiny_n ** 3)
    t_tiny = _best_seconds(lambda: be.matmul(tiny_a, tiny_b), repeats,
                           inner=32)
    samples.append(KernelSample(f"matmul[{tiny_n}x{tiny_n}]", t_tiny,
                                tiny_flops))
    overhead_estimates.append(max(t_tiny - tiny_flops / fps, 0.0))

    inplace_discount = _fit_inplace_discount(be, rng, 4 * tiny_n, repeats,
                                             samples)

    # Conversion pass (re-planning switch cost): a full-copy
    # re-normalization is the dense side of any backend switch.  Sized
    # at the big-kernel order so the per-entry cost is bandwidth, not
    # call dispatch.
    conv_n = big_n
    conv_src = rng.standard_normal((conv_n, conv_n))
    t_conv = _best_seconds(lambda: be.asarray(conv_src, copy=True), repeats,
                           inner=4)
    samples.append(KernelSample(f"convert[{conv_n}x{conv_n}]", t_conv,
                                float(conv_n * conv_n)))
    convert_passes = _clamp(t_conv * fps / float(conv_n * conv_n),
                            CONVERT_PASSES_RANGE)

    outer_n = 4 * tiny_n
    state = rng.standard_normal((outer_n, outer_n))
    outer_u = rng.standard_normal((outer_n, 1))
    outer_v = 0.01 * rng.standard_normal((outer_n, 1))
    outer_flops = float(2 * outer_n * outer_n)
    # In-place accumulation: repeated calls reuse the same state buffer,
    # so the sample times the kernel, not an untimed-copy workaround.
    t_outer = _best_seconds(
        lambda: be.add_outer(state, outer_u, outer_v), repeats, inner=16)
    samples.append(KernelSample(f"add_outer[{outer_n},r=1]", t_outer,
                                outer_flops))
    overhead_estimates.append(max(t_outer - outer_flops / fps, 0.0))

    compaction = _fit_compaction(be, rng, fps, repeats, samples,
                                 n=max(big_n, 128))

    overhead_seconds = max(statistics.median(overhead_estimates), 1e-7)
    return BackendCalibration(
        backend=be.name,
        flops_per_second=fps,
        call_overhead_flops=_clamp(overhead_seconds * fps,
                                   OVERHEAD_FLOPS_RANGE),
        inplace_discount=inplace_discount,
        convert_passes_per_entry=convert_passes,
        compaction_factor=compaction,
        samples=tuple(samples),
    )


def _fit_sparse(be: Backend, dense_fps: float, repeats: int, n: int,
                densities: tuple[float, ...]) -> BackendCalibration:
    from scipy import sparse as sp

    rng = np.random.default_rng(1403_6968)
    samples = []
    stream_penalties = []  # matvec-shaped kernels -> est_overhead
    update_penalties = []  # CSR structure merges  -> est_update_overhead
    spgemm_penalties = []  # sparse x sparse       -> est_spgemm_overhead

    # Tiny CSR matvec ~= pure call cost (format dispatch + validation).
    tiny = sp.random_array((64, 64), density=0.05, random_state=rng,
                           format="csr")
    tiny_x = rng.standard_normal((64, 1))
    tiny_flops = float(2 * tiny.nnz)
    t_tiny = _best_seconds(lambda: be.matmul(tiny, tiny_x), repeats, inner=32)
    samples.append(KernelSample("sparse matmul[64,d=0.05]", t_tiny,
                                tiny_flops))
    overhead_seconds = max(t_tiny - tiny_flops / dense_fps, 1e-7)

    def penalty(seconds: float, model_flops: float) -> float:
        return (max(seconds - overhead_seconds, 1e-9) * dense_fps
                / max(model_flops, 1.0))

    for density in densities:
        a = sp.random_array((n, n), density=density, random_state=rng,
                            format="csr")
        x = rng.standard_normal((n, 4))
        flops = float(2 * a.nnz * 4)
        t = _best_seconds(lambda a=a, x=x: be.matmul(a, x), repeats)
        samples.append(KernelSample(f"sparse matmul[{n},d={density:g}]", t,
                                    flops))
        stream_penalties.append(penalty(t, flops))

        # spgemm: expected multiply-adds of a random-pattern product.
        gemm_flops = max(2.0 * a.nnz * a.nnz / n, 2.0 * a.nnz)
        t_gemm = _best_seconds(lambda a=a: be.matmul(a, a), repeats)
        samples.append(KernelSample(f"spgemm[{n},d={density:g}]", t_gemm,
                                    gemm_flops))
        spgemm_penalties.append(penalty(t_gemm, gemm_flops))

        # CSR row slicing (reported, and folded into the update penalty:
        # it is the same indices/indptr-rebuild work edge updates pay).
        rows = rng.integers(0, n, size=max(n // 8, 1))
        t_slice = _best_seconds(lambda a=a, rows=rows: a[rows], repeats)
        slice_flops = float(a.nnz) * len(rows) / n
        samples.append(KernelSample(f"csr slice[{n},d={density:g}]", t_slice,
                                    slice_flops))
        update_penalties.append(penalty(t_slice, slice_flops))

        # Factored row update against CSR state (structure merge).
        u = np.zeros((n, 1))
        u[int(rng.integers(n)), 0] = 1.0
        v = 0.01 * rng.standard_normal((n, 1))
        upd_flops = float(2 * n + a.nnz)
        t_upd = _best_seconds(lambda a=a, u=u, v=v: be.add_outer(a, u, v),
                              repeats)
        samples.append(KernelSample(f"sparse add_outer[{n},d={density:g}]",
                                    t_upd, upd_flops))
        update_penalties.append(penalty(t_upd, upd_flops))

    inplace_discount = _fit_inplace_discount(be, rng, 128, repeats, samples)

    # Conversion passes (re-planning switch cost): the CSR <-> dense
    # round trip a live backend switch performs, per dense entry.
    conv = sp.random_array((n, n), density=densities[-1], random_state=rng,
                           format="csr")
    t_materialize = _best_seconds(lambda: be.materialize(conv), repeats)
    dense_image = be.materialize(conv)
    t_sparsify = _best_seconds(lambda: be.asarray(dense_image), repeats)
    entries = float(n * n)
    samples.append(KernelSample(f"csr->dense[{n}]", t_materialize, entries))
    samples.append(KernelSample(f"dense->csr[{n}]", t_sparsify, entries))
    convert_passes = _clamp(
        0.5 * (t_materialize + t_sparsify) * dense_fps / entries,
        CONVERT_PASSES_RANGE,
    )

    compaction = _fit_compaction(be, rng, dense_fps, repeats, samples)

    return BackendCalibration(
        backend=be.name,
        flops_per_second=dense_fps,
        call_overhead_flops=_clamp(overhead_seconds * dense_fps,
                                   OVERHEAD_FLOPS_RANGE),
        sparse_overhead=_clamp(statistics.median(stream_penalties),
                               SPARSE_OVERHEAD_RANGE),
        sparse_update_overhead=_clamp(statistics.median(update_penalties),
                                      SPARSE_UPDATE_OVERHEAD_RANGE),
        sparse_spgemm_overhead=_clamp(statistics.median(spgemm_penalties),
                                      SPARSE_SPGEMM_OVERHEAD_RANGE),
        inplace_discount=inplace_discount,
        convert_passes_per_entry=convert_passes,
        compaction_factor=compaction,
        samples=tuple(samples),
    )


def _ipc_echo_child(conn) -> None:
    """Echo loop of the IPC microbenchmark (spawn target: must be a
    module-level function so the child can import it)."""
    try:
        while True:
            payload = conn.recv_bytes()
            if len(payload) <= 1:
                break
            conn.send_bytes(payload)
    except (EOFError, OSError):
        pass
    finally:
        conn.close()


def _fit_ipc(repeats: int) -> tuple[float, float]:
    """Measured ``(seconds per one-way message, seconds per byte)`` over
    a spawned-worker pipe — the transport the sharded engine uses.

    Two payload sizes separate fixed latency from bandwidth: the small
    round trip is nearly pure per-message cost, the large one adds
    ``2 * nbytes`` of copying.
    """
    import multiprocessing as mp

    ctx = mp.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=_ipc_echo_child, args=(child,), daemon=True)
    proc.start()
    child.close()
    small = b"x" * 1024
    big = b"x" * (1 << 20)

    def roundtrip(payload: bytes) -> None:
        parent.send_bytes(payload)
        parent.recv_bytes()

    try:
        roundtrip(small)  # spawn warm-up: first message pays import cost
        t_small = _best_seconds(lambda: roundtrip(small), repeats, inner=32)
        t_big = _best_seconds(lambda: roundtrip(big), repeats, inner=4)
        per_call = t_small / 2.0
        per_byte = max(t_big - t_small, 1e-9) / (2.0 * (len(big) - len(small)))
        return per_call, per_byte
    finally:
        try:
            parent.send_bytes(b"q")
        except (BrokenPipeError, OSError):
            pass
        parent.close()
        proc.join(timeout=5.0)
        if proc.is_alive():  # pragma: no cover - hung child safety net
            proc.terminate()


def run_calibration(
    backends=None,
    repeats: int = 5,
    quick: bool = False,
) -> Calibration:
    """Time the backends' core kernels and fit their cost constants.

    ``quick=True`` shrinks the microbenchmark sizes (CI smoke / tests);
    the fit is noisier but the machinery is identical.  Backends that
    cannot be constructed (sparse without SciPy) are skipped.  The IPC
    microbenchmark (one spawned echo worker) runs once and its fit is
    attached to every backend's calibration.
    """
    names = list(backends) if backends is not None else ["dense", "sparse"]
    big_n, tiny_n = (96, 8) if quick else (256, 8)
    sparse_n = 256 if quick else 1024
    densities = (0.02,) if quick else (0.005, 0.05)

    fitted: dict[str, BackendCalibration] = {}
    dense_fps = None
    for name in names:
        try:
            be = get_backend(name)
        except (ValueError, RuntimeError):
            continue  # unavailable on this machine (e.g. no scipy)
        if name == "sparse":
            if dense_fps is None:
                dense_fps = _fit_dense(get_backend("dense"), repeats,
                                       big_n, tiny_n).flops_per_second
            fitted[name] = _fit_sparse(be, dense_fps, repeats, sparse_n,
                                       densities)
        else:
            cal = _fit_dense(be, repeats, big_n, tiny_n)
            fitted[name] = cal
            if name == "dense":
                dense_fps = cal.flops_per_second

    if fitted:
        if dense_fps is None:
            dense_fps = next(iter(fitted.values())).flops_per_second
        try:
            ipc_call_s, ipc_byte_s = _fit_ipc(repeats)
        except (OSError, RuntimeError):  # pragma: no cover - no mp support
            ipc_call_s = ipc_byte_s = None
        if ipc_call_s is not None:
            for name, cal in list(fitted.items()):
                fps = cal.flops_per_second
                fitted[name] = replace(
                    cal,
                    ipc_call_flops=_clamp(ipc_call_s * fps,
                                          IPC_CALL_FLOPS_RANGE),
                    ipc_flops_per_byte=_clamp(ipc_byte_s * fps,
                                              IPC_FLOPS_PER_BYTE_RANGE),
                    samples=cal.samples + (
                        KernelSample("ipc roundtrip[1KB]", ipc_call_s * 2.0,
                                     0.0),
                        KernelSample("ipc roundtrip[1MB]",
                                     ipc_call_s * 2.0 + ipc_byte_s * 2.0
                                     * float(1 << 20), 0.0),
                    ),
                )
    return Calibration(key=cache_key(), backends=fitted)


__all__ = [
    "CACHE_ENV",
    "BackendCalibration",
    "Calibration",
    "KernelSample",
    "autoload",
    "cache_key",
    "calibrated",
    "default_cache_path",
    "load_calibration",
    "run_calibration",
]
