"""Load generation for a :class:`~repro.runtime.serving.ViewServer`.

:func:`run_load` drives a server with write pressure and paced reader
threads and reports read latency, achieved staleness and writer
throughput — the numbers ``repro serve`` and
``benchmarks/bench_serve_latency.py`` print.  Serving itself never
calls it, so it lives apart from :mod:`repro.runtime.serving`, which
every benchmark set-up imports.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

import numpy as np

from .updates import FactoredUpdate


def run_load(
    server,
    make_update: Callable[[int], FactoredUpdate],
    read_names: Sequence[str],
    duration: float = 2.0,
    readers: int = 4,
    reader_rate: float = 200.0,
    writer_pause: float = 0.0,
) -> dict:
    """Drive a server with write pressure + paced readers; measure both.

    One pressure thread submits ``make_update(i)`` as fast as the
    server accepts (``writer_pause`` seconds between submissions adds
    an optional cap); ``readers`` threads each read a round-robin name
    at ``reader_rate`` reads/second, timing every ``read`` call.
    Returns read p50/p99/max latency, reader and writer throughput, and
    the server's achieved staleness — the numbers ``repro serve`` and
    ``bench_serve_latency.py`` report.
    """
    if readers < 1:
        raise ValueError("need at least one reader thread")
    stop = threading.Event()
    interval = 1.0 / reader_rate if reader_rate > 0 else 0.0
    latencies: list[list[float]] = [[] for _ in range(readers)]
    errors: list[BaseException] = []

    def read_loop(slot: int) -> None:
        sink = latencies[slot]
        try:
            # Desynchronize reader ticks so they don't stampede the GIL.
            time.sleep(interval * slot / max(readers, 1))
            i = 0
            while not stop.is_set():
                name = read_names[i % len(read_names)]
                start = time.perf_counter()
                value = server.read(name)
                sink.append(time.perf_counter() - start)
                del value
                i += 1
                if interval:
                    time.sleep(interval)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    applied_before = server.stats.applied

    def write_loop() -> None:
        try:
            i = 0
            while not stop.is_set():
                server.submit(make_update(i))
                i += 1
                if writer_pause:
                    time.sleep(writer_pause)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=write_loop, name="repro-load-writer",
                                daemon=True)]
    threads += [
        threading.Thread(target=read_loop, args=(slot,),
                         name=f"repro-load-reader-{slot}", daemon=True)
        for slot in range(readers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(duration)
    stop.set()
    for thread in threads:
        thread.join(timeout=30.0)
    elapsed = time.perf_counter() - start
    # Throughput counts what the writer landed inside the window; the
    # barrier below only drains the residual queue so the server's
    # final state is consistent for later reads.
    applied = server.stats.applied - applied_before
    server.refresh()
    if errors:
        raise errors[0]

    samples = np.array(sorted(x for sink in latencies for x in sink))
    if samples.size == 0:
        raise RuntimeError("load window too short: no reads completed")
    return {
        "duration_seconds": elapsed,
        "readers": readers,
        "reads": int(samples.size),
        "read_p50_ms": float(np.percentile(samples, 50) * 1e3),
        "read_p99_ms": float(np.percentile(samples, 99) * 1e3),
        "read_max_ms": float(samples[-1] * 1e3),
        "reads_per_second": float(samples.size / elapsed),
        "writer_updates": int(applied),
        "writer_updates_per_second": float(applied / elapsed),
        "epochs": int(getattr(server.stats, "epochs", 0)),
        "max_staleness_observed": int(server.stats.max_pending_at_publish),
        "staleness_bound": server.max_staleness,
    }



__all__ = ["run_load"]
