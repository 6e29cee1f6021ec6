"""Distributed execution on one layout: row tiles sharded over workers.

:class:`RowShardPartitioner` fixes the tiles; two engines run the same
per-tile kernels over them:

* :class:`ShardedEngine` over :class:`ProcessCluster` starts persistent
  worker processes with views in nameless ``/dev/shm`` segments
  (:mod:`repro.distributed.shm`, no resource tracker) and measures its
  traffic in real bytes and seconds;
* :class:`LocalShardEngine` runs every tile in this process, bitwise
  equal to the workers.

Both record in a :class:`~repro.distributed.comm.CommLog` what the
comm model predicts each op ships for the partitioner's node count, so
the node-count reports (docs/architecture.md) price clusters of any
size on the in-process engine.  :class:`ShardBackend` is the
``backend=`` a sharded session runs its triggers on.

A lazy package (:mod:`repro._lazy`): an engine loads only when one of
its names is asked for, and a shard worker imports
:mod:`repro.distributed.node` (tile kernels and the worker loop)
without either.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "BROADCAST": "comm",
    "CommEvent": "comm",
    "CommLog": "comm",
    "GATHER": "comm",
    "LocalShardEngine": "sharded",
    "ProcessCluster": "workers",
    "RecoveryEvent": "workers",
    "RowShardPartitioner": "partitioner",
    "SHUFFLE": "comm",
    "ShardBackend": "sharded",
    "SharedArray": "shm",
    "SharedMemoryBudgetError": "shm",
    "ShardedEngine": "sharded",
    "WorkerFailedError": "workers",
    "unshardable": "sharded",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
