"""Matrix powers across cluster sizes, on the row-shard layout (Fig. 3f).

Maintains A^16 (four squarings) as a sharded session on the in-process
row-shard engine, with the rows of every view split over N virtual
workers, and prints what one refresh ships: INCR's modeled factor
broadcasts and thin gathers, against the all-gather of the right
operand that each of re-evaluation's four n x n products needs.  INCR
ships O(nk) per worker at every N; REEVAL ships O(n^2) per worker —
the paper's finding that INCR is largely insensitive to the cluster
size.  The engine runs every tile's kernel in this process, so any N
fits on one machine; the byte counts are the ones a cluster of N
workers would move.

Run:  python examples/distributed_cluster.py
"""

import math

import numpy as np

from repro.distributed import LocalShardEngine, RowShardPartitioner, ShardBackend
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import FactoredUpdate, ReevalSession, ShardedSession
from repro.workloads import spectral_normalized

POWERS_16 = ("input A(n, n); P2 := A * A; P4 := P2 * P2; "
             "P8 := P4 * P4; P16 := P8 * P8; output P16;")


def main() -> None:
    n = 360
    program = parse_program(POWERS_16)
    a0 = spectral_normalized(np.random.default_rng(5), n, radius=0.9)
    print(f"A^16 with A = ({n} x {n}), one rank-1 refresh on N row-shard "
          f"workers (bytes summed over the workers)")
    print(f"{'workers':>8} {'rows/worker':>12} {'INCR bcast':>12} "
          f"{'INCR gather':>12} {'REEVAL all-gather':>18}")

    for nodes in (9, 25, 49, 100):
        part = RowShardPartitioner(n, nodes, tile_rows=math.ceil(n / nodes))
        incr = ShardedSession(program, {"A": a0},
                              backend=ShardBackend(LocalShardEngine(part)),
                              plan=MaintenancePlan("INCR", nodes=nodes))
        reeval = ReevalSession(program, {"A": a0})
        model = incr.engine.model
        model.reset()  # the initial build is preloaded, not shipped

        u = np.zeros((n, 1))
        u[7, 0] = 1.0
        v = 0.01 * np.random.default_rng(nodes).normal(size=(n, 1))
        for session in (incr, reeval):
            session.apply_update(FactoredUpdate("A", u, v))

        np.testing.assert_allclose(incr["P16"], reeval["P16"],
                                   rtol=1e-9, atol=1e-12)
        all_gather = len(program.statements) * n * n * 8 * (nodes - 1)
        print(f"{nodes:>8} {part.shard_rows(0):>12} "
              f"{model.broadcast_bytes:>12,} {model.gathered_bytes:>12,} "
              f"{all_gather:>18,}")
        incr.close()

    print("\nINCR ships thin factors; REEVAL moves every n x n operand —")
    print("the Fig. 3f shape. Results verified equal between strategies.")


if __name__ == "__main__":
    main()
