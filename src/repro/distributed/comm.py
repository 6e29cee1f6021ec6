"""Communication ledger of the shard engines (Section 6 analysis).

The paper's distributed argument is about *traffic class*, not just
volume: re-evaluation reshuffles ``O(n^2)`` tiles per product, while
incremental maintenance "minimize[s] the communication cost as less
data has to be shipped over the network" — only ``O(nk)`` broadcast
factors and gathered thin results.  :class:`CommLog` keeps that
classification explicit so tests, the node-count reports and the
partitioning ablation can assert it (bytes shuffled vs broadcast vs
gathered, per operation label).  An engine keeps two: ``comm``,
measured on the pipes, and ``model``, what :func:`tile_traffic`
predicts — the events the planner prices, too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Traffic classes.
SHUFFLE = "shuffle"        # tile-to-tile redistribution (dense products)
BROADCAST = "broadcast"    # master -> all workers (low-rank factors)
GATHER = "gather"          # workers -> master (thin partial results)

_KINDS = (SHUFFLE, BROADCAST, GATHER)


@dataclass(frozen=True)
class CommEvent:
    """One communication action: ``bytes`` moved in ``messages`` sends.

    ``seconds`` is the measured wall time of the transfer — 0.0 for
    modeled traffic, real pipe latency for the multiprocess engine.
    """

    kind: str
    label: str
    nbytes: int
    messages: int
    seconds: float = 0.0


@dataclass
class CommLog:
    """Classified traffic tallies for one modeled or measured execution."""

    events: list[CommEvent] = field(default_factory=list)

    def record(self, kind: str, label: str, nbytes: int, messages: int = 1,
               seconds: float = 0.0) -> None:
        """Append one traffic event (``kind`` must be a known class)."""
        if kind not in _KINDS:
            raise ValueError(f"unknown traffic kind {kind!r}; use one of {_KINDS}")
        if nbytes < 0 or messages < 0 or seconds < 0:
            raise ValueError("traffic cannot be negative")
        self.events.append(
            CommEvent(kind, label, int(nbytes), int(messages), float(seconds))
        )

    def bytes_by_kind(self) -> dict[str, int]:
        """Total bytes per traffic class (all classes always present)."""
        totals = {kind: 0 for kind in _KINDS}
        for event in self.events:
            totals[event.kind] += event.nbytes
        return totals

    def bytes_by_label(self) -> dict[str, int]:
        """Total bytes per operation label."""
        totals: dict[str, int] = {}
        for event in self.events:
            totals[event.label] = totals.get(event.label, 0) + event.nbytes
        return totals

    def messages_by_kind(self) -> dict[str, int]:
        """Total message count per traffic class."""
        totals = {kind: 0 for kind in _KINDS}
        for event in self.events:
            totals[event.kind] += event.messages
        return totals

    def seconds_by_kind(self) -> dict[str, float]:
        """Measured transfer wall time per traffic class."""
        totals = {kind: 0.0 for kind in _KINDS}
        for event in self.events:
            totals[event.kind] += event.seconds
        return totals

    def as_dict(self) -> dict:
        """JSON-ready summary (the ``comm`` block schema — see
        ``benchmarks/conftest.py``)."""
        return {
            "bytes": self.bytes_by_kind(),
            "messages": self.messages_by_kind(),
            "seconds": self.seconds_by_kind(),
            "bytes_by_label": self.bytes_by_label(),
            "total_bytes": self.total_bytes,
            "total_messages": self.total_messages,
        }

    @property
    def shuffled_bytes(self) -> int:
        """Bytes moved tile-to-tile (the REEVAL-dominant class)."""
        return self.bytes_by_kind()[SHUFFLE]

    @property
    def broadcast_bytes(self) -> int:
        """Bytes broadcast master-to-workers (the INCR-dominant class)."""
        return self.bytes_by_kind()[BROADCAST]

    @property
    def gathered_bytes(self) -> int:
        """Bytes gathered workers-to-master."""
        return self.bytes_by_kind()[GATHER]

    @property
    def total_bytes(self) -> int:
        """All traffic regardless of class."""
        return sum(event.nbytes for event in self.events)

    @property
    def total_messages(self) -> int:
        """Total message count (latency proxy)."""
        return sum(event.messages for event in self.events)

    def reset(self) -> None:
        """Clear the ledger."""
        self.events.clear()


def tile_traffic(part, op: str, *factors) -> tuple[CommEvent, ...]:
    """The modeled traffic of tile op ``op`` over the partitioner
    ``part``, handed float64 factors of shapes ``factors``: they are
    broadcast to the ``part.nodes - 1`` remote nodes (node 0 is the
    coordinator), then a product gathers their share of its thin result
    — their rows of ``view @ u``, or one ``(n, k)`` partial per row tile
    they own under ``view.T @ v``.  One message per remote node each way.
    """
    remote = part.nodes - 1
    events = [CommEvent(BROADCAST, op,
                        sum(rows * cols for rows, cols in factors) * 8 * remote,
                        remote)]
    if op != "add_lowrank":
        rows = (part.n * (part.n_tiles - len(part.shards[0]))
                if op == "matT_lowrank" else part.n - part.shard_rows(0))
        events.append(CommEvent(GATHER, op, rows * factors[0][1] * 8, remote))
    return tuple(events)


__all__ = ["BROADCAST", "CommEvent", "CommLog", "GATHER", "SHUFFLE",
           "tile_traffic"]
