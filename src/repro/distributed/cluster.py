"""Cluster model for the distributed-execution simulator (Section 6).

The paper's large-scale experiments run generated Spark code on a
``g x g`` grid of workers.  This simulator executes the same block
algebra *in process* while accounting, per parallel step, for

* **compute** — FLOPs per worker, converted to time by ``flop_rate``;
* **communication** — bytes received per worker over a non-blocking
  network, converted by ``bandwidth``; plus a per-round ``latency``.

Simulated wall-clock accumulates ``max_over_workers(compute) +
max_over_workers(bytes)/bandwidth + rounds * latency`` for every step —
a standard BSP cost model.  Defaults approximate one EC2 c3.8xlarge
worker of the paper's cluster (tens of GFLOP/s, 10 GbE), but all
experiments report *relative* behaviour, which is rate-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .comm import CommLog


@dataclass(frozen=True)
class ClusterConfig:
    """Shape and speed of the simulated cluster."""

    grid: int = 10                  # g: workers form a g x g grid
    flop_rate: float = 2.0e10       # FLOP/s per worker
    bandwidth: float = 1.25e9       # bytes/s per worker link (10 GbE)
    latency: float = 5.0e-4         # seconds per communication round

    @property
    def workers(self) -> int:
        """Total worker count ``g^2``."""
        return self.grid * self.grid

    @staticmethod
    def laptop_scale(grid: int) -> "ClusterConfig":
        """Rates calibrated for laptop-scale matrices (n of a few hundred).

        The paper's regime (n = 30K on EC2) has per-worker *compute*
        dominating latency, with shuffle traffic a visible second-order
        term.  Scaling n down by ~75x scales matmul work by ~4e5 and
        traffic by ~5e3; these rates shrink proportionally so small
        matrices exercise the same operating regime — who-wins and the
        node-count trends are preserved (docs/architecture.md, "Simulated
        cluster").
        """
        return ClusterConfig(
            grid=grid, flop_rate=5.0e7, bandwidth=2.0e7, latency=2.0e-5
        )


@dataclass
class StepCost:
    """Accounting record for one BSP step."""

    label: str
    max_flops: int = 0
    max_bytes_in: int = 0
    rounds: int = 0

    def time(self, config: ClusterConfig) -> float:
        """Simulated duration of this step."""
        return (
            self.max_flops / config.flop_rate
            + self.max_bytes_in / config.bandwidth
            + self.rounds * config.latency
        )


@dataclass
class Cluster:
    """A simulated cluster: accumulates per-step costs into a clock."""

    config: ClusterConfig = field(default_factory=ClusterConfig)
    steps: list[StepCost] = field(default_factory=list)
    total_flops: int = 0
    total_bytes: int = 0
    comm: CommLog = field(default_factory=CommLog)

    def record_step(
        self, label: str, max_flops: int, max_bytes_in: int, rounds: int = 1,
        total_flops: int | None = None, total_bytes: int | None = None,
    ) -> None:
        """Account one parallel step (critical-path flops and bytes)."""
        self.steps.append(StepCost(label, max_flops, max_bytes_in, rounds))
        self.total_flops += total_flops if total_flops is not None else max_flops
        self.total_bytes += total_bytes if total_bytes is not None else max_bytes_in

    @property
    def elapsed(self) -> float:
        """Simulated wall-clock over all recorded steps."""
        return sum(step.time(self.config) for step in self.steps)

    def reset(self) -> None:
        """Clear the clock and tallies (state arrays are unaffected)."""
        self.steps.clear()
        self.total_flops = 0
        self.total_bytes = 0
        self.comm.reset()

    def breakdown(self) -> dict[str, float]:
        """Elapsed time per step label (for the communication analyses)."""
        by_label: dict[str, float] = {}
        for step in self.steps:
            by_label[step.label] = by_label.get(step.label, 0.0) + step.time(
                self.config
            )
        return by_label
