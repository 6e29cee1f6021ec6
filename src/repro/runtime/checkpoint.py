"""Checkpoint/restore: durable snapshots plus a bounded delta log.

LINVIEW's economics make durable incremental state the right recovery
primitive: views are cheap to *maintain* (a thin factored refresh) but
expensive to *recompute* (REEVAL from base tables), so recovery should
restore the last consistent snapshot and replay the short delta tail —
the log+checkpoint discipline of DBToaster-style IVM engines — instead
of re-evaluating the program.  This module implements that discipline
for maintenance sessions:

* :func:`write_checkpoint` / :func:`load_checkpoint` — the on-disk
  format: a ``LVCK`` magic + version header, a JSON manifest (header
  v3: array names/shapes, ``plan`` — every build axis, stored once —
  ``update_count``, ``dims`` and one ``deferral`` entry: spec, resolved
  cell, policy state; a ``fused`` entry and a ``plan.optimize`` field
  written by older v3 files are read and ignored), the raw float64 view
  payload and a SHA-256 trailer over everything before it.  Files land
  via temp-file + :func:`os.replace`, so a crash mid-write leaves the previous
  checkpoint untouched; a torn file fails its checksum and loads raise
  :class:`CheckpointCorruptError` instead of returning garbage.
* :class:`CheckpointManager` — a ``keep``-bounded directory of
  sequenced snapshots whose :meth:`~CheckpointManager.latest` walks
  newest-first past corrupt files to the most recent *valid* one (the
  torn-write fallback the chaos suite exercises).
* :class:`Checkpointer` — the session-facing policy object: every
  applied update is :meth:`~Checkpointer.note`\\ d into a bounded
  in-memory delta log; on cadence (``every`` updates, or priced by
  :func:`repro.cost.estimate.recommend_checkpoint_every` with
  ``every="auto"``) the session flushes and a snapshot is written;
  :meth:`~Checkpointer.restore` rebuilds a fresh session from the
  latest valid snapshot and replays the logged tail through
  ``apply_update`` — landing on state **bitwise identical** to the
  live session it shadows, because snapshots are cut at flush
  boundaries and replay routes through an identically-restored
  deferral policy (same fold boundaries, same summation order).

Checkpoints capture everything value-affecting: view arrays, the
session's :class:`~repro.planner.plan.MaintenancePlan` — the whole
build recipe, ``rank`` included (an update of another width than
``rank`` runs on other buffers, which changes operand layouts) — and
the deferral slot through its public surface only — the session's
:class:`~repro.runtime.batching.DeferralSpec`, the cell it resolved to
and the policy's own ``capture()`` (for heavy-light: occupancy sketch,
heavy-set membership, retune phase).  They deliberately do *not*
capture the program — programs are code; :func:`restore_session` takes
the same :class:`~repro.compiler.program.Program` the original session
was opened with.  Sharded (``nodes > 1``) sessions checkpoint their
shared-memory views the same way and restore single-process; cluster
recovery is the supervisor's job (:mod:`repro.distributed.workers`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import struct
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from ..cost import counters
from .batching import DeferralSpec
from .updates import FactoredUpdate
from .views import ViewStore

#: File magic of the checkpoint format ("LinView ChecKpoint").
MAGIC = b"LVCK"
#: Current format version (bumped on any incompatible layout change).
VERSION = 3
#: Default number of snapshots a :class:`CheckpointManager` retains.
DEFAULT_KEEP = 3
#: Default bound on the in-memory delta log: reaching it forces a
#: checkpoint even when the cadence says "not yet" (epoch-driven
#: checkpointers would otherwise grow the log without bound).
DEFAULT_DELTA_LIMIT = 1024
#: Upper bound on a sane header, to fail fast on garbage files.
_MAX_HEADER = 64 * 1024 * 1024

_FILE_PREFIX = "ckpt-"
_FILE_SUFFIX = ".lvck"


class CheckpointError(RuntimeError):
    """A checkpoint operation failed (I/O, missing snapshot, bad config)."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file failed validation (torn write, bad checksum)."""


# -- on-disk format -------------------------------------------------------

def serialize_state(header: dict, arrays: dict[str, np.ndarray]) -> bytes:
    """Encode a captured session state as one checkpoint blob.

    Layout: ``MAGIC | u32 version | u64 header length | JSON header |
    float64 payload | SHA-256 over everything before the trailer``.
    The header's ``arrays`` manifest records name/shape in payload
    order, so offsets are implicit.
    """
    manifest = []
    chunks = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        manifest.append({"name": name, "shape": list(arr.shape)})
        chunks.append(arr.tobytes())
    full = dict(header)
    full["arrays"] = manifest
    encoded = json.dumps(full).encode("utf-8")
    body = b"".join([
        MAGIC,
        struct.pack("<I", VERSION),
        struct.pack("<Q", len(encoded)),
        encoded,
        *chunks,
    ])
    return body + hashlib.sha256(body).digest()


def deserialize_state(blob: bytes) -> tuple[dict, dict[str, np.ndarray]]:
    """Decode and validate a checkpoint blob back into (header, arrays).

    Raises :class:`CheckpointCorruptError` on any truncation, checksum
    mismatch, or malformed header — a torn write can never round-trip
    into silently-wrong view state.
    """
    digest_size = hashlib.sha256().digest_size
    if len(blob) < len(MAGIC) + 4 + 8 + digest_size:
        raise CheckpointCorruptError("checkpoint truncated below header size")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointCorruptError("bad checkpoint magic")
    body, trailer = blob[:-digest_size], blob[-digest_size:]
    if hashlib.sha256(body).digest() != trailer:
        raise CheckpointCorruptError("checkpoint checksum mismatch (torn write?)")
    (version,) = struct.unpack_from("<I", blob, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} (this build reads "
            f"{VERSION})"
        )
    (header_len,) = struct.unpack_from("<Q", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 4 + 8
    if header_len > _MAX_HEADER or start + header_len > len(body):
        raise CheckpointCorruptError("checkpoint header length out of range")
    try:
        header = json.loads(blob[start:start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointCorruptError("unreadable checkpoint header") from exc
    offset = start + header_len
    arrays: dict[str, np.ndarray] = {}
    for entry in header.get("arrays", ()):
        shape = tuple(int(d) for d in entry["shape"])
        nbytes = 8 * int(np.prod(shape, dtype=np.int64)) if shape else 8
        if offset + nbytes > len(body):
            raise CheckpointCorruptError(
                f"checkpoint payload truncated at array {entry['name']!r}")
        arrays[entry["name"]] = (
            np.frombuffer(blob, dtype=np.float64, count=int(np.prod(shape)),
                          offset=offset).reshape(shape).copy()
        )
        offset += nbytes
    if offset != len(body):
        raise CheckpointCorruptError("trailing bytes after checkpoint payload")
    return header, arrays


def write_checkpoint(path, header: dict, arrays: dict[str, np.ndarray]) -> Path:
    """Atomically write one checkpoint file (temp file + ``os.replace``).

    The serialized blob passes through the ``checkpoint.write`` fault
    seam before touching the filesystem, so the chaos suite can tear or
    crash the write deterministically.  I/O failures surface as
    :class:`CheckpointError`.
    """
    from ..testing import faults

    path = Path(path)
    blob = serialize_state(header, arrays)
    blob = faults.fire("checkpoint.write", blob, path=str(path))
    tmp = path.parent / f".{path.name}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read and validate one checkpoint file."""
    path = Path(path)
    try:
        blob = path.read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return deserialize_state(blob)


class CheckpointManager:
    """A bounded directory of sequenced snapshots with corrupt fallback.

    Files are named ``ckpt-<seq>.lvck``; :meth:`save` writes the next
    sequence number and prunes beyond ``keep``; :meth:`latest` walks
    newest-first and returns the first snapshot that validates, so a
    torn final write falls back to the previous good state instead of
    failing recovery.
    """

    def __init__(self, directory, keep: int = DEFAULT_KEEP):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.directory = Path(directory)
        self.keep = int(keep)
        self.directory.mkdir(parents=True, exist_ok=True)

    def paths(self) -> list[Path]:
        """Checkpoint files present, newest (highest sequence) first."""
        found = []
        for path in self.directory.iterdir():
            name = path.name
            if not (name.startswith(_FILE_PREFIX)
                    and name.endswith(_FILE_SUFFIX)):
                continue
            seq = name[len(_FILE_PREFIX):-len(_FILE_SUFFIX)]
            if seq.isdigit():
                found.append((int(seq), path))
        return [path for _, path in sorted(found, reverse=True)]

    def save(self, header: dict, arrays: dict[str, np.ndarray]) -> Path:
        """Write the next snapshot and prune past ``keep``."""
        existing = self.paths()
        next_seq = 1
        if existing:
            first = existing[0].name
            next_seq = int(first[len(_FILE_PREFIX):-len(_FILE_SUFFIX)]) + 1
        path = self.directory / f"{_FILE_PREFIX}{next_seq:08d}{_FILE_SUFFIX}"
        written = write_checkpoint(path, header, arrays)
        for stale in self.paths()[self.keep:]:
            stale.unlink(missing_ok=True)
        return written

    def latest(self) -> tuple[Path, dict, dict[str, np.ndarray]] | None:
        """Newest snapshot that validates, or ``None`` when none does.

        Corrupt files (torn writes) are skipped, not deleted — the next
        :meth:`save` prunes them off the end naturally, and leaving
        them aids post-mortems.
        """
        for path in self.paths():
            try:
                header, arrays = load_checkpoint(path)
            except CheckpointCorruptError:
                continue
            return path, header, arrays
        return None


# -- session state capture / rebuild --------------------------------------

def capture_session(session) -> tuple[dict, dict[str, np.ndarray]]:
    """Capture a *flushed* session's value-affecting state.

    The caller must flush first (``Checkpointer.checkpoint`` does):
    snapshots are cut at flush boundaries so restore + tail replay
    reproduces the live session's fold boundaries exactly.  Every build
    axis is stored once, as ``session.plan``.
    """
    views = session.views
    arrays = {name: views.get_dense(name) for name in views.names()}
    policy = session.deferral
    header: dict = {
        "plan": dataclasses.asdict(session.plan),
        "update_count": int(session.update_count),
        "dims": dict(views.dims),
        "deferral": {
            "spec": dataclasses.asdict(session.deferral_spec),
            "cell": vars(session.deferral_cell),
            "policy": policy.capture() if policy is not None else None,
        },
    }
    return header, arrays


def rebuild_session(program, header: dict, arrays: dict[str, np.ndarray],
                    counter: counters.Counter = counters.NULL_COUNTER):
    """Rebuild a session from captured state (the restore path).

    The stored plan goes back through
    :func:`~repro.runtime.session.build_session`, so the restored
    session compiles exactly the triggers the checkpointed one ran
    (strategy, backend, mode, rank); a stored field the plan no longer
    has (an older file's ``optimize``) is dropped.  Views are adopted by
    value — nothing is re-evaluated, and the
    freshly decoded ``arrays`` are handed over to the session's store
    rather than copied again — and the deferral slot is re-resolved
    from the stored spec and cell, then handed the stored policy state,
    so subsequent updates fold exactly as they would have on the
    checkpointed session.  Sharded snapshots
    restore single-process (``INCR``/interpret with the same kernels);
    re-sharding is a fresh ``open_session(nodes=N)`` call.
    """
    from ..backends import get_backend
    from ..planner.plan import MaintenancePlan
    from .session import build_session

    stored = header["plan"]
    # A sharded snapshot lands single-process: the one axis restore edits.
    plan = dataclasses.replace(
        MaintenancePlan(**{field.name: stored[field.name] for field
                           in dataclasses.fields(MaintenancePlan)}),
        nodes=1)
    backend = get_backend(plan.backend)
    store = ViewStore(header.get("dims"), backend=backend)
    for name, arr in arrays.items():
        store.adopt(name, arr)
    session = build_session(program, store, plan, counter=counter,
                            backend=backend)
    session.update_count = int(header.get("update_count", 0))
    deferral = header["deferral"]
    session.install_deferral(SimpleNamespace(**deferral["cell"]),
                             DeferralSpec(**deferral["spec"]))
    if deferral["policy"] is not None:
        # Heavy-set membership and retune phase survive flushes on the
        # live session, so they must survive restore too: membership
        # changes move accumulator rows between tiers, which changes
        # summation order — a value-affecting knob, not a statistic.
        session.deferral.restore(deferral["policy"])
    return session


def restore_session(program, directory,
                    counter: counters.Counter = counters.NULL_COUNTER):
    """Rebuild a session from the newest valid snapshot in ``directory``.

    The cold-start recovery entry point (the process that crashed has
    no delta log to replay).  Raises :class:`CheckpointError` when the
    directory holds no valid snapshot.
    """
    manager = CheckpointManager(directory)
    found = manager.latest()
    if found is None:
        raise CheckpointError(
            f"no valid checkpoint found in {manager.directory}")
    _, header, arrays = found
    return rebuild_session(program, header, arrays, counter=counter)


class Checkpointer:
    """Per-session checkpoint policy: cadence, delta log, restore.

    Attach with :meth:`Session.attach_checkpointer
    <repro.runtime.session.Session.attach_checkpointer>` (or
    ``open_session(checkpoint=...)``): the session then reports every
    applied update through :meth:`note`, which appends it to a bounded
    in-memory delta log and — with ``auto=True`` — cuts a snapshot
    every ``every`` updates.  ``every="auto"`` prices the cadence from
    the view footprint and update rank
    (:func:`repro.cost.estimate.recommend_checkpoint_every`), targeting
    a few percent of write-path overhead.  With ``auto=False`` the
    owner decides when (:class:`~repro.runtime.serving.ViewServer`
    calls :meth:`maybe_checkpoint` at epoch-publish boundaries); the
    ``delta_limit`` backstop still forces a snapshot before the log
    grows without bound.
    """

    def __init__(self, session, directory, every: int | str = "auto",
                 keep: int = DEFAULT_KEEP, auto: bool = True,
                 delta_limit: int | None = None):
        # The write path's fault seam loads now, not at the first cut.
        from ..testing import faults  # noqa: F401

        self.manager = CheckpointManager(directory, keep=keep)
        self.session = session
        self.auto = bool(auto)
        if every == "auto":
            every = self._priced_cadence(session)
        if not isinstance(every, int) or isinstance(every, bool) or every < 1:
            raise ValueError(
                f"every must be 'auto' or an int >= 1, got {every!r}")
        self.every = int(every)
        if delta_limit is None:
            delta_limit = max(4 * self.every, DEFAULT_DELTA_LIMIT)
        if delta_limit < self.every:
            raise ValueError("delta_limit must be >= the checkpoint cadence")
        self.delta_limit = int(delta_limit)
        self._pending: list[FactoredUpdate] = []
        #: Snapshots written over this checkpointer's lifetime.
        self.saves = 0
        #: Path of the most recent snapshot (``None`` before the first).
        self.last_path: Path | None = None

    def _priced_cadence(self, session) -> int:
        from ..cost.estimate import recommend_checkpoint_every

        views_bytes = session.views.total_bytes()
        # Per-update work proxy: a rank-r factored refresh touches every
        # stored entry a constant number of times.
        refresh_flops = 2.0 * session.plan.rank * max(views_bytes / 8.0, 1.0)
        return recommend_checkpoint_every(views_bytes, refresh_flops)

    @property
    def pending(self) -> int:
        """Updates in the delta log (applied live, not yet on disk)."""
        return len(self._pending)

    @property
    def due(self) -> bool:
        """Whether the cadence says a snapshot should be cut now."""
        return len(self._pending) >= self.every

    def note(self, update: FactoredUpdate) -> None:
        """Log one applied update; cut a snapshot when policy says so."""
        self._pending.append(FactoredUpdate(
            update.target, update.u_block.copy(), update.v_block.copy()))
        if self.auto:
            if self.due:
                self.checkpoint()
        elif len(self._pending) >= self.delta_limit:
            # Epoch-driven owner never got around to it: bound the log.
            self.checkpoint()

    def maybe_checkpoint(self) -> Path | None:
        """Cut a snapshot if one is due (the epoch-boundary hook)."""
        if self.due:
            return self.checkpoint()
        return None

    def checkpoint(self) -> Path:
        """Flush the session and write one snapshot now."""
        self.session.flush()
        header, arrays = capture_session(self.session)
        path = self.manager.save(header, arrays)
        self._pending.clear()
        self.saves += 1
        self.last_path = path
        return path

    def restore(self):
        """Rebuild from the newest valid snapshot and replay the tail.

        Returns the fresh session (also re-attached to this
        checkpointer), on state bitwise-identical to the live session:
        the snapshot was cut at a flush boundary and the logged tail
        replays through identically-restored deferral state.  The tail
        stays in the log — it is not on disk yet.
        """
        old = self.session
        session = restore_session(old.program, self.manager.directory,
                                  counter=old.counter)
        for update in self._pending:
            session.apply_update(update)
        self.session = session
        session._checkpointer = self
        if old is not session:
            # Detach the superseded session: were it to keep noting,
            # the delta log would interleave two streams and the next
            # restore would replay updates that never hit the snapshot.
            old._checkpointer = None
        return session


__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointManager",
    "Checkpointer",
    "DEFAULT_DELTA_LIMIT",
    "DEFAULT_KEEP",
    "MAGIC",
    "VERSION",
    "capture_session",
    "load_checkpoint",
    "rebuild_session",
    "restore_session",
    "serialize_state",
    "deserialize_state",
    "write_checkpoint",
]
