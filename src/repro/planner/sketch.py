"""The online stream sketch that re-planning and the heavy-light split read.

:class:`StreamSketch` counts per-target hits of a live update stream
and answers the planner's Table 4 questions from them: the distinct
share of a batch of a given width, and which targets are heavy.  Only
a :class:`~repro.runtime.drift.ReplanMonitor` or a
:class:`~repro.runtime.heavylight.HeavyLightMaintainer` builds one, so
it lives apart from :mod:`repro.planner.plan`, which every open loads.
"""

from __future__ import annotations

import numpy as np


class StreamSketch:
    """Online distinct-target sketch of an update stream (Zipf-aware).

    The Table 4 knob is how many *distinct* targets a batch of updates
    hits: a Zipf-skewed stream of 1000 row updates touching 10 rows
    compacts to a rank-10 refresh.  This sketch tracks per-target hit
    frequencies from the live stream (one bounded counter per observed
    target key) and answers the planner's question directly:
    :meth:`fraction` estimates the expected distinct share of a
    width-``m`` batch under the observed frequencies,

        E[distinct] / m  =  sum_i (1 - (1 - p_i)^m) / m

    — the occupancy formula for ``m`` draws from the empirical
    distribution.  :class:`~repro.runtime.drift.ReplanMonitor` feeds a
    sketch from the stream it supervises and hands it to the planner
    through :attr:`WorkloadStats.distinct_fraction`, so re-planning
    re-prices every candidate batch width from what the stream actually
    does instead of the conservative no-compression default.

    Target keys are derived per factor column (the dominant row of the
    ``u`` column — exact for row/cell updates, a stable proxy for dense
    factors).  At most ``capacity`` keys are tracked; hits beyond that
    are assumed distinct (conservative: overflow never inflates the
    compression estimate).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._counts: dict[int, int] = {}
        self.total = 0
        self.overflow = 0

    def observe_key(self, key: int) -> None:
        """Record one hit on an abstract target key."""
        count = self._counts.get(key)
        if count is not None:
            self._counts[key] = count + 1
        elif len(self._counts) < self.capacity:
            self._counts[key] = 1
        else:
            self.overflow += 1
        self.total += 1

    def observe(self, update) -> None:
        """Record a :class:`~repro.runtime.updates.FactoredUpdate`.

        One key per factor column: the dominant row of the column (the
        updated row for indicator columns).
        """
        u = np.asarray(update.u_block)
        for col in range(u.shape[1]):
            column = u[:, col]
            if column.size:
                self.observe_key(int(np.argmax(np.abs(column))))

    def distinct_targets(self) -> int:
        """Distinct target keys observed so far (tracked + overflow)."""
        return len(self._counts) + self.overflow

    def fraction(self, width: int) -> float:
        """Expected distinct fraction of a ``width``-update batch.

        1.0 before any observation (the conservative no-compression
        default) and for width 1; never below ``1/width`` (a batch hits
        at least one target).
        """
        m = max(int(width), 1)
        if m <= 1 or self.total == 0:
            return 1.0
        total = float(self.total)
        expected = sum(
            1.0 - (1.0 - count / total) ** m
            for count in self._counts.values()
        )
        # Untracked (overflow) mass: assume every draw is distinct.
        expected += (self.overflow / total) * m
        return float(min(1.0, max(expected / m, 1.0 / m)))

    def _heavy_threshold(self, budget: int, factor: float) -> float:
        """Minimum hit count for a key to qualify as a heavy hitter.

        A key is heavy when its observed share clears both
        ``1/(2*budget)`` (it matters relative to the eager capacity) and
        ``factor`` times the uniform share over the distinct targets
        seen (it is genuinely hotter than a flat stream — on a uniform
        stream no key clears this, so the heavy set collapses to empty).
        The share bar is capped at 0.5 so a degenerate one- or
        two-target stream still qualifies, and a key needs at least two
        hits (one hit is not a hitter).
        """
        distinct = max(self.distinct_targets(), 1)
        share = min(max(1.0 / (2.0 * budget), factor / distinct), 0.5)
        return max(share * self.total, 2.0)

    def heavy_keys(self, budget: int, factor: float = 4.0) -> list[int]:
        """The top-``budget`` target keys qualifying as heavy hitters.

        Sorted by descending hit count; empty before any observation and
        on uniform streams (see :meth:`_heavy_threshold`).  Feeds both
        the planner's heavy-light pricing and the
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer`'s
        adaptive heavy-set membership.
        """
        if self.total == 0 or budget < 1:
            return []
        threshold = self._heavy_threshold(int(budget), factor)
        qualified = sorted(
            ((count, key) for key, count in self._counts.items()
             if count >= threshold),
            reverse=True,
        )
        return [key for _, key in qualified[:int(budget)]]

    def heavy_share(self, budget: int, factor: float = 4.0) -> float:
        """Observed hit-mass fraction of the heavy set for ``budget``.

        0.0 on empty/uniform streams (no heavy set), approaching 1.0
        when a few targets dominate — the planner charges eager cost on
        this mass and deferred-fold cost on the remainder.
        """
        return self.heavy_split(budget, 1, factor)[0]

    def light_fraction(self, budget: int, width: int,
                       factor: float = 4.0) -> float:
        """Expected distinct fraction of ``width`` *light-tail* draws.

        Same occupancy estimate as :meth:`fraction`, but conditioned on
        the stream with the heavy set (for ``budget``) removed — the
        distribution the deferred pending block actually sees.  Repeats
        in the tail compact across the (long) deferral window, so this
        is the planner's light-rank growth rate.  1.0 when the tail is
        empty or nothing has been observed.
        """
        return self.heavy_split(budget, width, factor)[1]

    def heavy_split(self, budget: int, width: int,
                    factor: float = 4.0) -> tuple[float, float]:
        """``(heavy_share, light_fraction)`` for ``budget`` from one
        :meth:`heavy_keys` — what the planner prices a split on."""
        if self.total == 0:
            return 0.0, 1.0
        heavy = self.heavy_keys(budget, factor)
        share = (float(sum(self._counts[key] for key in heavy))
                 / float(self.total) if heavy else 0.0)
        m = max(int(width), 1)
        if m <= 1:
            return share, 1.0
        heavy = set(heavy)
        light_counts = [count for key, count in self._counts.items()
                        if key not in heavy]
        light_total = float(sum(light_counts) + self.overflow)
        if light_total <= 0:
            return share, 1.0
        expected = sum(
            1.0 - (1.0 - count / light_total) ** m for count in light_counts
        )
        # Untracked (overflow) mass: assume every draw is distinct.
        expected += (self.overflow / light_total) * m
        return share, float(min(1.0, max(expected / m, 1.0 / m)))

    def capture(self) -> dict:
        """The sketch's counters, JSON-ready (what a checkpoint stores)."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "overflow": self.overflow,
            "counts": [[int(k), int(v)] for k, v in self._counts.items()],
        }

    def restore(self, state: dict) -> None:
        """Re-enter the counters :meth:`capture` recorded."""
        self.capacity = int(state["capacity"])
        self.total = int(state["total"])
        self.overflow = int(state["overflow"])
        self._counts = {int(k): int(v) for k, v in state["counts"]}

    def __repr__(self) -> str:
        return (
            f"StreamSketch(total={self.total}, "
            f"distinct={self.distinct_targets()})"
        )



__all__ = ["StreamSketch"]
