"""Distributed backends: the BSP cost simulator and the real engine.

Two layers share the :class:`~repro.distributed.comm.CommLog` traffic
ledger:

* the **simulator** (:class:`SimulatedBackend` over
  :class:`BlockMatrix`) executes block algebra in process while
  charging a BSP cost model — pass it as ``backend=`` to the
  :mod:`repro.iterative` factories; docs/architecture.md
  ("Simulated cluster") says why this preserves the paper's
  distributed findings at any node count;
* the **real engine** (:class:`ShardedEngine` over
  :class:`ProcessCluster`) spawns persistent workers with views in
  ``multiprocessing.shared_memory`` segments, so the same traffic
  classes are measured in real bytes and real seconds.
"""

from .blockmatrix import BlockMatrix
from .cluster import Cluster, ClusterConfig, StepCost
from .comm import BROADCAST, GATHER, SHUFFLE, CommEvent, CommLog
from .engine import SimulatedBackend
from .partitioner import GridPartitioner, RowShardPartitioner, hybrid_extra_bytes
from .sharded import (
    LocalShardEngine,
    ShardedChainMaintainer,
    ShardedEngine,
    chain_steps,
    power_chain,
    sharded_reeval_refresh,
    sharded_refresh,
)
from .shm import SharedArray, SharedMemoryBudgetError
from .workers import ProcessCluster, RecoveryEvent, WorkerFailedError

__all__ = [
    "BROADCAST",
    "BlockMatrix",
    "CommEvent",
    "CommLog",
    "Cluster",
    "ClusterConfig",
    "GATHER",
    "GridPartitioner",
    "LocalShardEngine",
    "ProcessCluster",
    "RecoveryEvent",
    "RowShardPartitioner",
    "SHUFFLE",
    "SharedArray",
    "SharedMemoryBudgetError",
    "ShardedChainMaintainer",
    "ShardedEngine",
    "SimulatedBackend",
    "StepCost",
    "WorkerFailedError",
    "chain_steps",
    "hybrid_extra_bytes",
    "power_chain",
    "sharded_reeval_refresh",
    "sharded_refresh",
]
