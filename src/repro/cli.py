"""Command-line interface: compile, advise on, and run matrix programs.

Mirrors the paper's compiler workflow (Figure 2) from the shell::

    python -m repro compile program.lvw                 # trigger text
    python -m repro compile program.lvw --backend python
    python -m repro compile program.lvw --backend octave
    python -m repro compile program.lvw --backend spark
    python -m repro compile program.lvw --input A --rank 2
    python -m repro compile program.lvw --dims n=4096   # chain-order products
    python -m repro show program.lvw                    # parsed program
    python -m repro advise powers --n 10000 --k 16      # Table 2 advisor
    python -m repro advise general --n 30000 --p 1 --k 16

``repro advise`` ranks the Table 2 grid; with ``--density`` the grid
gains the execution-backend axis (nnz-aware cost model), and ``--json``
emits the ranking machine-readably::

    python -m repro advise general --n 2000 --p 1 --k 16 --density 0.01
    python -m repro advise powers --n 2000 --k 16 --density 0.01 --json

``repro run`` executes a program end to end: it generates seeded
random inputs at a requested density, opens a planner-configured
session (:func:`repro.runtime.session.open_session`), drives a stream
of rank-``r`` row updates through it, and reports the chosen plan,
FLOP counters and wall time::

    python -m repro run program.lvw --dims n=2000 --density 0.01
    python -m repro run program.lvw --dims n=64 --plan incr --backend dense
    python -m repro run program.lvw --dims n=256 --updates 100 --json
    python -m repro run program.lvw --dims n=512 --replan 50
    python -m repro run program.lvw --dims n=512 --batch 16  # force a width
    python -m repro run program.lvw --dims n=512 --theta 1.5 \
        --partition heavy-light --heavy-budget 16  # skew-split maintenance

``repro run --tenants N`` replicates the program across N tenants —
``--share`` maintains them through one shared
:class:`~repro.catalog.ViewCatalog` (each distinct subexpression kept
fresh once), without it each tenant pays for its own session — so the
two invocations bracket the sharing win::

    python -m repro run program.lvw --dims n=256 --tenants 8 --share
    python -m repro run program.lvw --dims n=256 --tenants 8

``repro catalog`` registers several tenant program files on one shared
catalog, streams updates through it, and reports the sharing stats and
the lineage DAG of shared intermediates::

    python -m repro catalog a.lvw b.lvw --dims n=256 --updates 100
    python -m repro catalog a.lvw --tenants 4 --memory-budget 500000 --json

``repro serve`` opens a concurrent view server over the session
(:mod:`repro.runtime.serving`) and drives a load generator against it —
one writer thread absorbing a random update stream, N reader threads on
lock-free snapshot reads — reporting read p50/p99 latency, achieved
staleness and writer throughput::

    python -m repro serve program.lvw --dims n=256 --readers 8
    python -m repro serve program.lvw --dims n=256 --staleness 8 --json

``repro calibrate`` microbenchmarks this machine's kernels and caches
calibrated planner cost constants (see :mod:`repro.calibrate`)::

    python -m repro calibrate
    python -m repro calibrate --quick --dry-run --json

Program files use the frontend language (see ``repro.frontend``)::

    input A(n, n);
    B := A * A;
    C := B * B;
    output C;
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Start-up is paid by every call, ``--help`` included: each command
# imports what it runs, so nothing here pulls in NumPy or SciPy.
from .frontend.errors import SyntaxErrorWithPosition

BACKENDS = ("trigger", "python", "octave", "spark")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LINVIEW reproduction: compile linear algebra programs "
                    "into incremental update triggers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # What ``run``, ``catalog`` and ``serve`` share: generated inputs
    # and the random row-update stream driven through them.
    stream = argparse.ArgumentParser(add_help=False)
    stream.add_argument("--dims", action="append", default=[],
                        metavar="NAME=SIZE",
                        help="bind a symbolic dimension (repeatable, "
                             "required for every dimension the inputs use)")
    stream.add_argument("--density", type=float, default=1.0,
                        help="nnz density of the generated inputs "
                             "(default 1.0)")
    stream.add_argument("--rank", type=int, default=1,
                        help="width of each factored update (default 1)")
    stream.add_argument("--scale", type=float, default=0.01,
                        help="magnitude of the update deltas (default 0.01)")
    stream.add_argument("--seed", type=int, default=20140622,
                        help="random seed for inputs and updates")
    stream.add_argument("--json", action="store_true",
                        help="emit the report as JSON")

    # ... and what ``run`` and ``serve`` ask ``open_session`` for.
    planned = argparse.ArgumentParser(add_help=False)
    planned.add_argument("--plan", choices=("auto", "incr", "reeval"),
                         default="auto",
                         help="maintenance strategy: auto (cost-driven "
                              "planner), incr, or reeval")
    planned.add_argument("--backend", choices=("auto", "dense", "sparse"),
                         default="auto",
                         help="execution backend (auto = planner's choice)")
    planned.add_argument("--mode", choices=("auto", "interpret", "codegen"),
                         default="auto",
                         help="trigger execution mode (auto = planner's "
                              "choice)")
    planned.add_argument("--batch", default="auto", metavar="{auto,off,N}",
                         help="update batching: 'auto' honors the plan's "
                              "recommended width (QR+SVD-compacted batch "
                              "refreshes), 'off' applies per update, an "
                              "integer forces that width (default: auto)")

    show = sub.add_parser("show", help="parse a program and print it")
    show.add_argument("file", help="program source file")

    comp = sub.add_parser("compile", help="compile a program to triggers")
    comp.add_argument("file", help="program source file")
    comp.add_argument("--backend", choices=BACKENDS, default="trigger",
                      help="output form (default: trigger text; python "
                           "prints the lowered form sessions execute)")
    comp.add_argument("--input", dest="inputs", action="append",
                      help="compile a trigger only for this input "
                           "(repeatable; default: all inputs)")
    comp.add_argument("--rank", type=int, default=1,
                      help="width of the incoming update factors (default 1)")
    comp.add_argument("--materialize-inversions", action="store_true",
                      help="hoist nested inv(...) into their own views "
                           "(the Example 4.2 restructuring)")
    comp.add_argument("--dims", action="append", default=[],
                      metavar="NAME=SIZE",
                      help="bind a symbolic dimension and re-associate "
                           "every product chain optimally for those sizes "
                           "(repeatable, e.g. --dims n=4096; not with "
                           "--backend python)")

    advise = sub.add_parser(
        "advise",
        help="rank maintenance strategies by the Table 2 cost model",
    )
    advise.add_argument("computation", choices=("powers", "general"),
                        help="'powers' (A^k) or 'general' (T = A T + B)")
    advise.add_argument("--n", type=int, required=True,
                        help="matrix order n")
    advise.add_argument("--k", type=int, required=True,
                        help="iteration count k")
    advise.add_argument("--p", type=int, default=1,
                        help="iterate width p (general form only)")
    advise.add_argument("--gamma", type=float, default=3.0,
                        help="matrix-multiplication exponent (default 3.0)")
    advise.add_argument("--memory-budget", type=float, default=None,
                        help="max view footprint in matrix entries")
    advise.add_argument("--top", type=int, default=5,
                        help="how many configurations to print (default 5)")
    advise.add_argument("--density", type=float, default=None,
                        help="input nnz density; adds the execution-backend "
                             "axis to the grid (nnz-aware cost model)")
    advise.add_argument("--rank", type=int, default=1,
                        help="update rank for the nnz-aware model (default 1)")
    advise.add_argument("--refreshes", type=int, default=100,
                        help="expected refresh count amortizing setup "
                             "(nnz-aware model only; default 100)")
    advise.add_argument("--json", action="store_true",
                        help="emit the ranking as JSON")

    cal = sub.add_parser(
        "calibrate",
        help="microbenchmark this machine and cache planner cost constants",
    )
    cal.add_argument("--output", default=None, metavar="PATH",
                     help="cache file to write (default: $REPRO_CALIBRATION "
                          "or ~/.cache/linview-repro/calibration.json)")
    cal.add_argument("--backend", dest="backends", action="append",
                     choices=("dense", "sparse"),
                     help="calibrate only this backend (repeatable; "
                          "default: all available)")
    cal.add_argument("--repeats", type=int, default=5,
                     help="timing repeats per kernel (default 5)")
    cal.add_argument("--quick", action="store_true",
                     help="smaller microbenchmark sizes (noisier fit)")
    cal.add_argument("--dry-run", action="store_true",
                     help="measure and report without writing the cache")
    cal.add_argument("--json", action="store_true",
                     help="emit the fitted constants as JSON")

    run = sub.add_parser(
        "run", parents=[stream, planned],
        help="execute a program against a generated update stream",
    )
    run.add_argument("file", help="program source file")
    run.add_argument("--updates", type=int, default=50,
                     help="number of rank-r row updates to stream (default 50)")
    run.add_argument("--replan", type=int, default=0, metavar="N",
                     help="re-price the plan grid every N updates and "
                          "switch strategy/backend mid-stream when it "
                          "pays (0 = static plan)")
    run.add_argument("--partition", default="auto",
                     choices=("auto", "uniform", "heavy-light"),
                     help="update-target partitioning: 'auto' honors the "
                          "plan's recommendation (heavy-light splits "
                          "heavy-hitter rows into eager accumulator rows "
                          "and defers the light tail; chosen only when "
                          "the stream sketch shows skew), 'uniform' "
                          "disables the split, 'heavy-light' forces it")
    run.add_argument("--heavy-budget", type=int, default=None, metavar="N",
                     help="heavy-set capacity for --partition heavy-light "
                          "(default: the plan's recommendation)")
    run.add_argument("--theta", type=float, default=0.0, metavar="T",
                     help="Zipf skew of the generated update stream's "
                          "target rows (0 = uniform; ~1.2+ makes "
                          "heavy-light pay)")
    run.add_argument("--nodes", type=int, default=1, metavar="N",
                     help="worker-process budget: N > 1 lets the planner "
                          "price sharded execution over N shared-memory "
                          "workers and picks it only when the comm-cost "
                          "model says it pays (default 1: single-process)")
    run.add_argument("--shard", choices=("range", "hash"), default="range",
                     help="tile-to-worker assignment strategy for sharded "
                          "runs (default range: contiguous block rows)")
    run.add_argument("--supervise", action="store_true",
                     help="supervise sharded workers: respawn dead or hung "
                          "processes and replay their shard's oplog so a "
                          "kill -9 becomes a logged recovery, not a crash")
    run.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="write epoch-consistent checkpoints of the "
                          "maintained state into DIR (created if missing)")
    run.add_argument("--checkpoint-every", default="auto",
                     metavar="{auto,N}",
                     help="snapshot cadence in updates; auto prices the "
                          "snapshot cost against replay cost (default auto)")
    run.add_argument("--restore", action="store_true",
                     help="resume from the newest valid checkpoint in "
                          "--checkpoint-dir (fresh start when none exists), "
                          "then apply the update stream on top")
    run.add_argument("--tenants", type=int, default=1, metavar="N",
                     help="replicate the program across N tenants and "
                          "stream the updates to all of them (default 1; "
                          "see --share)")
    run.add_argument("--share", action="store_true",
                     help="maintain the --tenants replicas through one "
                          "shared view catalog (each distinct "
                          "subexpression kept fresh once) instead of N "
                          "independent sessions")
    run.add_argument("--input", dest="target",
                     help="input the update stream hits (default: first)")

    cat = sub.add_parser(
        "catalog", parents=[stream],
        help="maintain several tenant programs on one shared view "
             "catalog and report sharing stats and the lineage DAG",
    )
    cat.add_argument("files", nargs="+",
                     help="tenant program source files (each registers "
                          "one tenant on the catalog)")
    cat.add_argument("--tenants", type=int, default=1, metavar="N",
                     help="register the file list N times (N tenants "
                          "per file; default 1)")
    cat.add_argument("--updates", type=int, default=50,
                     help="number of rank-r row updates to stream "
                          "through the shared base table (default 50)")
    cat.add_argument("--plan", choices=("incr", "reeval"), default="incr",
                     help="maintenance strategy of the shared inner "
                          "session (default incr)")
    cat.add_argument("--backend", choices=("dense", "sparse"),
                     default="dense",
                     help="execution backend of the shared inner "
                          "session (default dense)")
    cat.add_argument("--mode", choices=("interpret", "codegen"),
                     default="interpret",
                     help="trigger execution mode of the shared inner "
                          "session (default interpret)")
    cat.add_argument("--memory-budget", type=int, default=None,
                     metavar="BYTES",
                     help="byte budget for admitted shared state; over "
                          "it, frontier nodes demote to "
                          "REEVAL-on-demand (default: unbounded)")
    cat.add_argument("--input", dest="target",
                     help="input the update stream hits (default: first "
                          "input of the first program)")

    serve = sub.add_parser(
        "serve", parents=[stream, planned],
        help="serve a program's views concurrently and measure read "
             "latency under write pressure",
    )
    serve.add_argument("file", help="program source file")
    serve.add_argument("--duration", type=float, default=2.0,
                       help="load window in seconds (default 2.0)")
    serve.add_argument("--readers", type=int, default=4,
                       help="concurrent reader threads (default 4)")
    serve.add_argument("--reader-rate", type=float, default=200.0,
                       help="reads/second per reader thread (default 200; "
                            "0 = unpaced tight loop)")
    serve.add_argument("--staleness", default="32", metavar="{N,none}",
                       help="publish an epoch at least every N absorbed "
                            "updates ('none': publish only when the "
                            "ingress queue idles; default 32)")
    serve.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                       help="also publish when the oldest unpublished "
                            "update is this old")
    serve.add_argument("--max-queue", type=int, default=4096,
                       help="ingress queue bound (backpressure; default 4096)")
    return parser


def _load_program(path: str):
    from .frontend.parser import parse_program

    source = Path(path).read_text()
    return parse_program(source)


def _run_advise(args) -> int:
    from .cost.advisor import recommend_general, recommend_powers, speedup_estimate

    extra = {}
    if args.density is not None:
        extra = {"density": args.density, "rank": args.rank,
                 "refreshes": args.refreshes}
    try:
        if args.computation == "powers":
            ranked = recommend_powers(args.n, args.k, gamma=args.gamma,
                                      memory_budget=args.memory_budget,
                                      **extra)
            header = f"A^{args.k}, n = {args.n}"
        else:
            ranked = recommend_general(args.n, args.p, args.k,
                                       gamma=args.gamma,
                                       memory_budget=args.memory_budget,
                                       **extra)
            header = f"T = A T + B, n = {args.n}, p = {args.p}, k = {args.k}"
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps({
            "computation": args.computation,
            "density": args.density,
            "speedup_estimate": speedup_estimate(ranked),
            "ranking": [rec.as_dict() for rec in ranked[:args.top]],
        }, indent=2))
        return 0

    grid = "Table 2" if args.density is None else (
        f"nnz-aware grid, density {args.density:g}"
    )
    print(f"# {header} (predicted operation counts, {grid})")
    print(f"{'rank':<5} {'config':<22} {'time':>12} {'space':>12}")
    for i, rec in enumerate(ranked[:args.top], start=1):
        print(f"{i:<5} {rec.label:<22} {rec.time:>12.4g} {rec.space:>12.4g}")
    print(f"# predicted gain over best re-evaluation: "
          f"{speedup_estimate(ranked):.1f}x")
    return 0


def _run_calibrate(args) -> int:
    from .backends import get_backend
    from . import calibrate

    calibration = calibrate.run_calibration(
        backends=args.backends, repeats=args.repeats, quick=args.quick,
    )
    if not calibration.backends:
        print("error: no backend available to calibrate", file=sys.stderr)
        return 2

    written = None
    if not args.dry_run:
        try:
            written = calibration.save(args.output)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        default = calibrate.default_cache_path()
        if default is not None and written.resolve() == default.resolve():
            # Written to the auto-load path: in-process planners pick
            # the new constants up immediately.  Any other --output is
            # only consulted when $REPRO_CALIBRATION points at it, so
            # the memoized default must not be refreshed from it.
            calibrate.autoload(refresh=True)

    if args.json:
        payload = calibration.as_dict()
        payload["path"] = str(written) if written else None
        print(json.dumps(payload, indent=2))
        return 0

    print(f"# calibration for {calibration.key}")
    for name, cal in sorted(calibration.backends.items()):
        defaults = get_backend(name)
        print(f"{name}:")
        print(f"  throughput           : {cal.flops_per_second:,.0f} FLOP/s")
        print(f"  call overhead        : {cal.call_overhead_flops:,.0f} FLOPs "
              f"(shipped constant: {defaults.est_call_overhead_flops:,.0f})")
        if cal.sparse_overhead is not None:
            print(f"  sparse FLOP penalty  : {cal.sparse_overhead:.2f}x "
                  f"(shipped constant: "
                  f"{getattr(defaults, 'est_overhead', float('nan')):.2f}x)")
        if cal.sparse_update_overhead is not None:
            print(f"  sparse update penalty: {cal.sparse_update_overhead:.2f}x "
                  f"(shipped constant: "
                  f"{getattr(defaults, 'est_update_overhead', float('nan')):.2f}x)")
        if cal.sparse_spgemm_overhead is not None:
            print(f"  spgemm penalty       : {cal.sparse_spgemm_overhead:.2f}x "
                  f"(shipped constant: "
                  f"{getattr(defaults, 'est_spgemm_overhead', float('nan')):.2f}x)")
        if cal.inplace_discount is not None:
            print(f"  in-place discount    : {cal.inplace_discount:.2f}x "
                  f"(shipped constant: "
                  f"{defaults.est_inplace_discount:.2f}x)")
        if cal.convert_passes_per_entry is not None:
            print(f"  convert passes/entry : "
                  f"{cal.convert_passes_per_entry:.2f} "
                  f"(shipped constant: "
                  f"{defaults.est_convert_passes_per_entry:.2f})")
        if cal.compaction_factor is not None:
            print(f"  compaction m^3 factor: "
                  f"{cal.compaction_factor:.1f} "
                  f"(shipped constant: "
                  f"{defaults.est_compaction_factor:.1f})")
        for sample in cal.samples:
            print(f"    {sample.kernel:<28} {sample.seconds * 1e6:10.1f} us  "
                  f"(~{sample.model_flops:,.0f} FLOPs)")
    if written:
        print(f"cached -> {written}")
        default = calibrate.default_cache_path()
        if default is None or written.resolve() != default.resolve():
            print(f"note: planners load this file only with "
                  f"{calibrate.CACHE_ENV}={written}")
    else:
        print("dry run: cache not written")
    return 0


def _generate_input(sym, dims, density, rng):
    """One seeded random input at the requested density, spectrally tamed."""
    from .runtime.executor import EvaluationError, resolve_dim
    from .workloads.generators import spectral_scale

    try:
        rows = resolve_dim(sym.shape.rows, dims)
        cols = resolve_dim(sym.shape.cols, dims)
    except EvaluationError as exc:
        raise ValueError(f"{exc}; bind it with --dims NAME=SIZE") from None
    arr = rng.standard_normal((rows, cols))
    if density < 1.0:
        arr *= rng.random((rows, cols)) < density
    # Keep iterated programs numerically tame: scale square inputs
    # toward spectral radius 0.9 (the workloads convention).
    if rows == cols and rows > 1:
        arr = spectral_scale(rng, arr, radius=0.9, iterations=10)
    return arr


def _generate_inputs(program, dims, density, rng):
    """Seeded random inputs at the requested density, spectrally tamed."""
    return {sym.name: _generate_input(sym, dims, density, rng)
            for sym in program.inputs}


def _update_stream(rng, target, shape, count, rank, scale, theta=0.0):
    """``count`` pre-generated rank-``rank`` row updates of ``target``.

    Rows are uniform without replacement per update, or — ``theta > 0``
    — Zipf-skewed: one ``sample_rows`` draw covers the whole stream, so
    a single random rank -> row assignment keeps the hot rows hot
    across updates (the skew heavy-light maintenance exploits).
    """
    import numpy as np

    from .runtime.updates import FactoredUpdate

    n_rows, n_cols = shape
    zipf_rows = None
    if theta > 0.0:
        from .workloads.zipf import sample_rows

        zipf_rows = sample_rows(rng, n_rows, count * rank,
                                theta).reshape(count, rank)
    updates = []
    for index in range(count):
        u = np.zeros((n_rows, rank))
        if zipf_rows is not None:
            rows = zipf_rows[index]
        else:
            rows = rng.choice(n_rows, size=rank, replace=False)
        u[rows, np.arange(rank)] = 1.0
        v = scale * rng.standard_normal((n_cols, rank))
        updates.append(FactoredUpdate(target, u, v))
    return updates


def _run_run_tenants(args, program, dims, rng, inputs, target) -> int:
    """The ``repro run --tenants N [--share]`` multi-tenant branch."""
    from .catalog import ViewCatalog
    from .cost.counters import Counter
    from .planner.plan import MaintenancePlan
    from .runtime.session import build_session

    if args.updates < 1 or args.tenants < 1:
        print("error: need --updates >= 1 and --tenants >= 1",
              file=sys.stderr)
        return 2

    strategy = "REEVAL" if args.plan == "reeval" else "INCR"
    mode = "interpret" if args.mode == "auto" else args.mode
    backend = "dense" if args.backend == "auto" else args.backend
    updates = _update_stream(rng, target, inputs[target].shape,
                             args.updates, args.rank, args.scale)

    counter = Counter()
    catalog = None
    start = time.perf_counter()
    if args.share:
        catalog = ViewCatalog(strategy=strategy, mode=mode, backend=backend,
                              rank=args.rank, counter=counter)
        tenants = [catalog.open(program, inputs if i == 0 else None,
                                dims=dims)
                   for i in range(args.tenants)]
    else:
        plan = MaintenancePlan(strategy, backend=backend, mode=mode,
                               rank=args.rank)
        tenants = [build_session(program, inputs, plan, dims, counter)
                   for _ in range(args.tenants)]
    setup_seconds = time.perf_counter() - start
    counter.reset()

    start = time.perf_counter()
    # A shared base table takes the stream once and every tenant
    # observes it; independent sessions each take their own copy.
    for sink in tenants if catalog is None else [catalog]:
        sink.apply_updates(updates)
        sink.flush()
    maintain_seconds = time.perf_counter() - start

    label = "shared catalog" if args.share else "independent sessions"
    payload = {
        "tenants": args.tenants,
        "share": bool(args.share),
        "strategy": strategy,
        "mode": mode,
        "backend": backend,
        "updates": len(updates),
        "setup_seconds": setup_seconds,
        "maintain_seconds": maintain_seconds,
        "seconds_per_update": maintain_seconds / len(updates),
        "total_flops": counter.total_flops,
        "tenant_views": args.tenants * len(program.statements),
    }
    if catalog is not None:
        payload["distinct_nodes"] = catalog.distinct_nodes
        payload["catalog"] = catalog.stats.as_dict()
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    print(f"# {args.file}: {len(updates)} rank-{args.rank} updates x "
          f"{args.tenants} tenants ({label})")
    print(f"config     : {strategy} / {payload['backend']} / {mode}")
    if catalog is not None:
        print(f"sharing    : {catalog.distinct_nodes} distinct nodes for "
              f"{payload['tenant_views']} tenant views "
              f"({catalog.stats.shared_hits} shared hits)")
        print(f"refreshes  : {catalog.stats.node_refreshes} node refreshes "
              f"({len(updates)} updates)")
    print(f"setup      : {setup_seconds * 1e3:10.2f} ms")
    print(f"maintenance: {maintain_seconds * 1e3:10.2f} ms   "
          f"({payload['seconds_per_update'] * 1e3:.3f} ms/update)")
    print(f"FLOPs      : {counter.total_flops:,} total")
    return 0


def _run_run(args, program) -> int:
    import numpy as np

    from .cost.counters import Counter
    from .runtime.session import open_session

    tenants = args.share or args.tenants > 1
    try:
        dims = _parse_dims(args.dims)
        batch = None if tenants else _parse_batch(args.batch)
        rng = np.random.default_rng(args.seed)
        inputs = _generate_inputs(program, dims, args.density, rng)
        target = args.target or program.input_names[0]
        if target not in program.input_names:
            raise ValueError(f"no input named {target!r}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if tenants:
        return _run_run_tenants(args, program, dims, rng, inputs, target)

    n_rows, n_cols = inputs[target].shape
    if args.updates < 1:
        print("error: need --updates >= 1", file=sys.stderr)
        return 2
    if not 1 <= args.rank <= n_rows:
        print(f"error: --rank must be between 1 and {n_rows} "
              f"(rows of {target!r})", file=sys.stderr)
        return 2
    checkpoint = None
    if args.checkpoint_dir is not None:
        every = args.checkpoint_every
        if every != "auto":
            if not str(every).isdigit() or int(every) < 1:
                print(f"error: --checkpoint-every must be auto or a count "
                      f">= 1, got {every!r}", file=sys.stderr)
                return 2
            every = int(every)
        checkpoint = {"directory": args.checkpoint_dir, "every": every,
                      "restore": "auto" if args.restore else False}
    elif args.restore:
        print("error: --restore needs --checkpoint-dir", file=sys.stderr)
        return 2

    counter = Counter()
    start = time.perf_counter()
    session = open_session(
        program, inputs, dims=dims,
        plan=args.plan,
        backend=None if args.backend == "auto" else args.backend,
        mode=None if args.mode == "auto" else args.mode,
        rank=args.rank,
        refresh_count=args.updates,
        counter=counter,
        replan={"check_every": args.replan} if args.replan > 0 else None,
        batch=batch,
        partition=args.partition,
        heavy_budget=args.heavy_budget,
        nodes=args.nodes,
        shard=args.shard,
        supervise=args.supervise,
        checkpoint=checkpoint,
    )
    restored_updates = session.update_count
    setup_seconds = time.perf_counter() - start
    setup_flops = counter.total_flops
    counter.reset()

    updates = _update_stream(rng, target, (n_rows, n_cols), args.updates,
                             args.rank, args.scale, theta=args.theta)

    start = time.perf_counter()
    session.apply_updates(updates)
    session.flush()  # land any batched tail inside the timed window
    maintain_seconds = time.perf_counter() - start
    per_update = maintain_seconds / len(updates)

    plan = session.plan
    flops = dict(sorted(counter.snapshot().items()))
    replans = list(getattr(session, "replans", ()))
    batch_stats = session.batch_stats
    batch_width = session.batch_size
    partition_mode = session.partition
    partition_stats = session.partition_stats
    # Sharded sessions carry a real multiprocess engine: harvest the
    # measured comm traffic (schema: benchmarks/conftest.py) and shut
    # the workers down before reporting (a replan monitor delegates
    # every attribute to the session it currently wraps).
    # Leave the directory durable: land any logged tail as a final
    # snapshot so a later --restore resumes exactly here.
    checkpointer = session.checkpointer
    ckpt = None
    if checkpointer is not None:
        if checkpointer.pending:
            checkpointer.checkpoint()
        ckpt = {
            "directory": str(checkpointer.manager.directory),
            "every": checkpointer.every,
            "saves": checkpointer.saves,
            "restored_updates": restored_updates,
            "last": str(checkpointer.last_path),
        }
    import dataclasses as _dc

    recoveries = [_dc.asdict(event) for event in
                  getattr(session, "recoveries", ())]
    fallbacks = list(getattr(session, "fallback_events", ()))
    engine = getattr(session, "engine", None)
    comm = None
    if engine is not None and hasattr(engine, "comm"):
        comm = {
            **engine.comm.as_dict(),
            "worker_seconds": engine.worker_seconds(),
            "partition": engine.part.describe(),
        }
        session.close()
    if args.json:
        print(json.dumps({
            "plan": plan.as_dict(),
            "updates": len(updates),
            "setup_seconds": setup_seconds,
            "setup_flops": setup_flops,
            "maintain_seconds": maintain_seconds,
            "seconds_per_update": per_update,
            "flops_by_op": flops,
            "total_flops": counter.total_flops,
            "batch": {
                "width": batch_width,
                **(batch_stats.as_dict() if batch_stats else {}),
            },
            "partition": {
                "mode": partition_mode,
                **(partition_stats.as_dict() if partition_stats else {}),
            },
            "replans": [
                {"refreshes": e.refreshes, "from": e.from_label,
                 "to": e.to_label, "switched": e.switched,
                 "seconds_per_update": e.seconds_per_update}
                for e in replans
            ],
            **({"comm": comm} if comm is not None else {}),
            **({"checkpoint": ckpt} if ckpt is not None else {}),
            **({"recoveries": recoveries} if recoveries else {}),
            **({"fallbacks": fallbacks} if fallbacks else {}),
        }, indent=2))
        return 0

    print(f"# {args.file}: {len(updates)} rank-{args.rank} updates to "
          f"{target!r} (density {args.density:g})")
    print(f"plan       : {plan.label}")
    print(f"  strategy : {plan.strategy}")
    print(f"  backend  : {plan.backend}")
    print(f"  mode     : {plan.mode}")
    if batch_stats is not None and batch_stats.flushes:
        print(f"  batch    : {batch_width} "
              f"(achieved compression {batch_stats.compression:.1f}x over "
              f"{batch_stats.flushes} flushes)")
    else:
        print(f"  batch    : "
              f"{'off' if batch_width <= 1 else batch_width}")
    if partition_stats is not None:
        print(f"  partition: heavy-light (budget {session.deferral.budget}, "
              f"{partition_stats.heavy_hits} heavy / "
              f"{partition_stats.light_hits} light hits, "
              f"amortization {partition_stats.amortization:.1f} cols/rank "
              f"over {partition_stats.folds} folds)")
    else:
        print("  partition: uniform")
    print(f"setup      : {setup_seconds * 1e3:10.2f} ms   "
          f"({setup_flops:,} FLOPs)")
    print(f"maintenance: {maintain_seconds * 1e3:10.2f} ms   "
          f"({per_update * 1e3:.3f} ms/update)")
    for event in replans:
        verb = "switched" if event.switched else "considered"
        print(f"  replan @ {event.refreshes:>5}: {verb} "
              f"{event.from_label} -> {event.to_label}")
    total = counter.total_flops
    print(f"FLOPs      : {total:,} total")
    for op, count in flops.items():
        print(f"  {op:<11} {count:,}")
    if comm is not None:
        part = comm["partition"]
        print(f"comm       : {part['nodes']} workers, "
              f"{part['strategy']} shards, "
              f"{comm['total_bytes']:,} bytes / "
              f"{comm['total_messages']:,} messages")
        for kind in sorted(comm["bytes"]):
            print(f"  {kind:<11} {comm['bytes'][kind]:,} bytes "
                  f"({comm['messages'].get(kind, 0):,} msgs, "
                  f"{comm['seconds'].get(kind, 0.0) * 1e3:.1f} ms)")
        busy = ", ".join(f"{s * 1e3:.1f}" for s in comm["worker_seconds"])
        print(f"  worker ms : [{busy}]")
    if ckpt is not None:
        resumed = (f", resumed at update {ckpt['restored_updates']}"
                   if ckpt["restored_updates"] else "")
        print(f"checkpoint : {ckpt['saves']} snapshots every "
              f"{ckpt['every']} updates -> {ckpt['directory']}{resumed}")
    for event in recoveries:
        print(f"  recovery : worker {event['worker']} {event['reason']} "
              f"during {event['label']}; replayed {event['replayed']} "
              f"refreshes in {event['seconds'] * 1e3:.1f} ms")
    for event in fallbacks:
        print(f"  fallback : sharded -> single-process "
              f"({event['mode']} after {event['reason']})")
    return 0


def _run_catalog(args) -> int:
    """The ``repro catalog`` subcommand: shared multi-tenant maintenance."""
    import numpy as np

    from .catalog import CatalogError, ViewCatalog
    from .cost.counters import Counter
    from .planner.programcost import refresh_ledger

    try:
        programs = [_load_program(path) for path in args.files]
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename}", file=sys.stderr)
        return 2
    except SyntaxErrorWithPosition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.updates < 1 or args.tenants < 1:
        print("error: need --updates >= 1 and --tenants >= 1",
              file=sys.stderr)
        return 2
    try:
        dims = _parse_dims(args.dims)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rng = np.random.default_rng(args.seed)
    counter = Counter()
    tenant_programs = [p for _ in range(args.tenants) for p in programs]

    start = time.perf_counter()
    known: dict[str, bool] = {}
    try:
        catalog = ViewCatalog(
            memory_budget=args.memory_budget,
            strategy="REEVAL" if args.plan == "reeval" else "INCR",
            mode=args.mode, backend=args.backend, rank=args.rank,
            counter=counter)
        for program in tenant_programs:
            fresh = {}
            for sym in program.inputs:
                if sym.name not in known:
                    fresh[sym.name] = _generate_input(
                        sym, dims, args.density, rng)
                    known[sym.name] = True
            catalog.open(program, fresh, dims=dims)
    except (CatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_seconds = time.perf_counter() - start

    target = args.target or tenant_programs[0].input_names[0]
    value = None
    try:
        value = catalog.read(target)
    except KeyError:
        print(f"error: no catalog input named {target!r}", file=sys.stderr)
        return 2
    counter.reset()
    start = time.perf_counter()
    catalog.apply_updates(_update_stream(
        rng, target, value.shape, args.updates, args.rank, args.scale))
    catalog.flush()
    maintain_seconds = time.perf_counter() - start

    stats = catalog.stats
    tenant_views = stats.registered_views
    density = dict.fromkeys(known, args.density)

    def priced(program) -> float:
        """Ledger FLOPs of one update to ``target`` maintaining ``program``."""
        return float(sum(refresh_ledger(
            catalog.backend, program, dims, density, rank=args.rank,
            update_input=target, strategy=catalog.strategy)[1].values()))

    # Shared: the merged program the catalog runs; private: each tenant's
    # own session over the same stream.
    admitted = catalog.program()
    est_shared = priced(admitted) if admitted is not None else 0.0
    est_private = sum(priced(program) for program in tenant_programs
                      if target in program.input_names)
    if args.json:
        print(json.dumps({
            "files": list(args.files),
            "tenants": len(tenant_programs),
            "tenant_views": tenant_views,
            "distinct_nodes": catalog.distinct_nodes,
            "stats": stats.as_dict(),
            "memory_bytes": catalog.memory_bytes(),
            "memory_budget": args.memory_budget,
            "updates": args.updates,
            "setup_seconds": setup_seconds,
            "maintain_seconds": maintain_seconds,
            "total_flops": counter.total_flops,
            "estimated_flops_per_update": {
                "shared": est_shared, "private": est_private,
            },
            "lineage": catalog.lineage(),
        }, indent=2))
        return 0

    print(f"# {len(tenant_programs)} tenants over {', '.join(args.files)}: "
          f"{args.updates} rank-{args.rank} updates to {target!r}")
    print(f"sharing    : {catalog.distinct_nodes} distinct nodes maintain "
          f"{tenant_views} tenant views "
          f"({stats.shared_hits} shared hits)")
    print(f"refreshes  : {stats.node_refreshes} node refreshes, "
          f"{stats.demand_reads} on-demand reads, "
          f"{stats.evictions} evictions / {stats.readmissions} re-admissions")
    budget = ("unbounded" if args.memory_budget is None
              else f"{args.memory_budget:,} bytes")
    print(f"memory     : {catalog.memory_bytes():,} bytes admitted "
          f"(budget {budget})")
    print(f"est. FLOPs : {est_shared:,.0f}/update shared vs "
          f"{est_private:,.0f}/update private "
          f"({est_private / max(est_shared, 1.0):.1f}x)")
    print(f"setup      : {setup_seconds * 1e3:10.2f} ms")
    print(f"maintenance: {maintain_seconds * 1e3:10.2f} ms   "
          f"({counter.total_flops:,} FLOPs)")
    print("lineage DAG:")
    for rec in catalog.lineage():
        status = "admitted" if rec["admitted"] else "evicted"
        deps = ", ".join(rec["deps"]) or "-"
        print(f"  {rec['name']:<6} {rec['expr']:<40} "
              f"[{status}, {rec['tenants']} tenants, deps: {deps}]")
    return 0


def _run_serve(args, program) -> int:
    import numpy as np

    from .runtime.loadgen import run_load
    from .runtime.serving import ViewServer
    from .runtime.session import open_session

    try:
        dims = _parse_dims(args.dims)
        batch = _parse_batch(args.batch)
        inputs = _generate_inputs(program, dims, args.density,
                                  np.random.default_rng(args.seed))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    staleness: int | None
    if str(args.staleness).lower() in ("none", "off"):
        staleness = None
    elif str(args.staleness).isdigit() and int(args.staleness) >= 1:
        staleness = int(args.staleness)
    else:
        print(f"error: --staleness must be a count >= 1 or 'none', "
              f"got {args.staleness!r}", file=sys.stderr)
        return 2

    if (args.duration < 0 or args.readers < 1 or args.max_queue < 0
            or args.max_age is not None and args.max_age <= 0):
        print("error: need --duration >= 0, --readers >= 1, "
              "--max-queue >= 0 and --max-age > 0", file=sys.stderr)
        return 2

    target = program.input_names[0]
    session = open_session(
        program, inputs, dims=dims,
        plan=args.plan,
        backend=None if args.backend == "auto" else args.backend,
        mode=None if args.mode == "auto" else args.mode,
        rank=args.rank, batch=batch,
    )
    names = list(program.outputs)
    server = ViewServer(session, views=names, max_staleness=staleness,
                        max_age=args.max_age, max_queue=args.max_queue)

    # A pre-generated update pool keeps the pressure thread's cost in
    # submission, not in RNG work.
    pool = _update_stream(np.random.default_rng(args.seed + 1), target,
                          inputs[target].shape, 512, args.rank, args.scale)

    try:
        results = run_load(
            server, lambda i: pool[i % len(pool)], names,
            duration=args.duration, readers=args.readers,
            reader_rate=args.reader_rate,
        )
    finally:
        server.close()

    plan = session.plan
    if args.json:
        print(json.dumps({
            "plan": plan.as_dict(),
            "mode": "snapshot",
            "staleness_bound": staleness,
            "results": results,
            "server_stats": server.stats.as_dict(),
        }, indent=2))
        return 0
    print(f"# {args.file}: {args.readers} readers x {args.duration:g}s "
          f"under write pressure (ViewServer snapshots)")
    print(f"plan       : {plan.label}")
    print(f"reads      : {results['reads']} "
          f"({results['reads_per_second']:,.0f}/s across "
          f"{args.readers} readers)")
    print(f"read p50   : {results['read_p50_ms']:8.3f} ms")
    print(f"read p99   : {results['read_p99_ms']:8.3f} ms")
    print(f"read max   : {results['read_max_ms']:8.3f} ms")
    print(f"writer     : {results['writer_updates']} updates "
          f"({results['writer_updates_per_second']:,.0f}/s)")
    bound = "none" if staleness is None else staleness
    print(f"staleness  : max {results['max_staleness_observed']} "
          f"observed (bound {bound}), {results['epochs']} epochs")
    return 0


def _parse_batch(value: str) -> int | str:
    """``--batch``: ``auto``, ``off`` or a width ``>= 1``."""
    if value in ("auto", "off"):
        return value
    if not value.lstrip("-").isdigit() or int(value) < 1:
        raise ValueError(
            f"--batch must be auto, off or a width >= 1, got {value!r}")
    return int(value)


def _parse_dims(pairs: list[str]) -> dict[str, int]:
    dims: dict[str, int] = {}
    for pair in pairs:
        name, _, size = pair.partition("=")
        if not name or not size or not size.isdigit():
            raise ValueError(f"expected NAME=SIZE, got {pair!r}")
        dims[name] = int(size)
    return dims


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "advise":
        return _run_advise(args)

    if args.command == "calibrate":
        return _run_calibrate(args)

    if args.command == "catalog":
        return _run_catalog(args)

    try:
        program = _load_program(args.file)
    except FileNotFoundError:
        print(f"error: no such file: {args.file}", file=sys.stderr)
        return 2
    except SyntaxErrorWithPosition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "show":
        print(program)
        return 0

    if args.command == "run":
        return _run_run(args, program)

    if args.command == "serve":
        return _run_serve(args, program)

    return _run_compile(args, program)


def _run_compile(args, program) -> int:
    """``repro compile``: the one caller compiling at a concrete width."""
    from .compiler.compile import compiled_program

    if args.materialize_inversions:
        from .compiler.transform import materialize_inversions

        program = materialize_inversions(program)
        print("# after inverse materialization:")
        print("\n".join(f"#   {stmt!r}" for stmt in program.statements))
        print()

    try:
        compiled = compiled_program(program, args.rank)
        names = sorted(set(args.inputs or compiled.triggers))
        for name in names:
            program.input(name)  # raises KeyError for unknown inputs
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    try:
        dims = _parse_dims(args.dims)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if dims and args.backend == "python":
        print("error: --dims applies to the trigger, octave and spark "
              "backends; python prints the lowered list sessions run, "
              "whose products are never re-associated", file=sys.stderr)
        return 2

    # Only ``compile`` pays for an emitter, and only for the one it prints.
    if args.backend == "python":
        from .compiler.codegen.fused import generate_python_trigger as emit
    elif args.backend == "octave":
        from .compiler.codegen.octave_gen import generate_octave_trigger as emit
    elif args.backend == "spark":
        from .compiler.codegen.spark_gen import generate_spark_trigger as emit
    else:
        emit = str
    if dims:
        from .compiler.chain import UnboundDimensionError, optimize_trigger_chains

    for index, name in enumerate(names):
        # python prints the merged list sessions run; the AST printers
        # print Algorithm 1's trigger, chain-ordered under --dims.
        form = (compiled.lowered(name) if args.backend == "python"
                else compiled.triggers[name])
        if dims:
            try:
                form = optimize_trigger_chains(form, dims)
            except UnboundDimensionError as exc:
                print(f"error: {exc} (bind it with --dims)", file=sys.stderr)
                return 2
        if index:
            print()
        print(emit(form))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
