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
  classes are measured in real bytes and real seconds;
  :class:`ShardBackend` is the ``backend=`` a sharded session runs its
  triggers on.

A lazy package (:mod:`repro._lazy`): the simulator and the real engine
load only when one of their names is asked for, and a shard worker
imports :mod:`repro.distributed.workers` without either.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "BROADCAST": "comm",
    "BlockMatrix": "blockmatrix",
    "CommEvent": "comm",
    "CommLog": "comm",
    "Cluster": "cluster",
    "ClusterConfig": "cluster",
    "GATHER": "comm",
    "GridPartitioner": "partitioner",
    "LocalShardEngine": "sharded",
    "ProcessCluster": "workers",
    "RecoveryEvent": "workers",
    "RowShardPartitioner": "partitioner",
    "SHUFFLE": "comm",
    "ShardBackend": "sharded",
    "SharedArray": "shm",
    "SharedMemoryBudgetError": "shm",
    "ShardedEngine": "sharded",
    "SimulatedBackend": "engine",
    "StepCost": "cluster",
    "WorkerFailedError": "workers",
    "hybrid_extra_bytes": "partitioner",
    "unshardable": "sharded",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
