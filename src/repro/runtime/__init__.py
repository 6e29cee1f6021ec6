"""Single-node NumPy backend: executor, views, update events, IVM sessions.

A lazy package (:mod:`repro._lazy`): importing it, or one submodule of
it, imports nothing else, so a shard worker that needs
:mod:`repro.runtime.workspace` does not load the planner and compiler
behind :mod:`repro.runtime.session`.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "BatchStats": "batching",
    "CheckpointCorruptError": "checkpoint",
    "CheckpointError": "checkpoint",
    "CheckpointManager": "checkpoint",
    "Checkpointer": "checkpoint",
    "DeferralSpec": "batching",
    "DeferredRefresher": "batching",
    "DriftExceededError": "drift",
    "DriftMonitor": "drift",
    "DriftReport": "drift",
    "EvaluationError": "executor",
    "FactoredUpdate": "updates",
    "HeavyLightMaintainer": "heavylight",
    "HeavyLightStats": "heavylight",
    "IVMSession": "session",
    "IngressOverflowError": "serving",
    "IngressTimeoutError": "serving",
    "InvalidUpdateError": "updates",
    "OVERLOAD_POLICIES": "serving",
    "MaintainerEngine": "serving",
    "ReevalSession": "session",
    "ReplanEvent": "drift",
    "ReplanMonitor": "drift",
    "ServerClosedError": "serving",
    "ServerStats": "serving",
    "Session": "session",
    "SessionBatcher": "batching",
    "SessionDriftMonitor": "drift",
    "SessionEngine": "serving",
    "ShardedSession": "session",
    "SingularUpdateError": "updates",
    "Snapshot": "serving",
    "UnsupportedCombinationError": "session",
    "ViewServer": "serving",
    "ViewStore": "views",
    "Workspace": "workspace",
    "WriterFailedError": "serving",
    "run_load": "serving",
    "batch_row_update": "updates",
    "cell_update": "updates",
    "column_update": "updates",
    "evaluate": "executor",
    "load_checkpoint": "checkpoint",
    "open_session": "session",
    "resolve_deferral": "batching",
    "restore_session": "checkpoint",
    "resolve_dim": "executor",
    "row_update": "updates",
    "write_checkpoint": "checkpoint",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
