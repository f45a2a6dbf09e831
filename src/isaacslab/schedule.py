"""Time partitions, information marks, and asymptotic-density checks.

Deterministic play alternates who moves second according to a 0/1 mark per
interval: mark 1 means v sees u (lower-value round), mark 0 means u sees v.
For the scheme to approximate the priority-weighted game, the marks must
average to p along the partition: on each sub-grid block the time-weighted
fraction of ones must stay within epsilon of p evaluated at the block
start, and blocks themselves must be shorter than epsilon.

``make_marks`` assigns marks greedily by running deficit: interval k gets
a one exactly when the mass of ones so far falls short of the accumulated
target mass through the end of interval k, where each block contributes
mass at the rate p(block start).  The deficit carries across blocks, so
the running error stays inside [0, max step): each block's deviation is
below (max step) / (block duration), the best a 0/1 sequence can do, and
consecutive blocks lean to opposite sides of the target instead of all
overshooting the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import PrioritySpec

__all__ = [
    "ScheduleError",
    "Partition",
    "MarkSequence",
    "SubGrid",
    "DensityReport",
    "make_uniform_partition",
    "make_marks",
    "check_density",
]


class ScheduleError(ValueError):
    """Invalid partition, marks, sub-grid, or density inputs."""


@dataclass(frozen=True)
class Partition:
    """Strictly increasing grid of decision times t_0 < t_1 < ... < t_n."""

    times: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.size < 2:
            raise ScheduleError("partition needs at least two times")
        if not np.all(np.isfinite(times)):
            raise ScheduleError("partition times must be finite")
        if not np.all(np.diff(times) > 0.0):
            raise ScheduleError("partition times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @property
    def intervals(self) -> int:
        return self.times.size - 1

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.times)

    @property
    def mesh(self) -> float:
        return float(self.steps.max())

    @property
    def start(self) -> float:
        return float(self.times[0])

    @property
    def end(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class MarkSequence:
    """One information mark per interval: 1 = v sees u, 0 = u sees v."""

    marks: tuple[int, ...]

    def __post_init__(self) -> None:
        marks = tuple(int(m) for m in self.marks)
        if not marks:
            raise ScheduleError("mark sequence must be non-empty")
        if any(m not in (0, 1) for m in marks):
            raise ScheduleError("marks must be 0 or 1")
        object.__setattr__(self, "marks", marks)

    def __len__(self) -> int:
        return len(self.marks)

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.marks, dtype=int)


@dataclass(frozen=True)
class SubGrid:
    """Block boundaries as partition indices 0 = l_0 < l_1 < ... < l_I = n."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if len(idx) < 2 or idx[0] != 0:
            raise ScheduleError("sub-grid must start at index 0 and contain an end")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ScheduleError("sub-grid indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)

    @property
    def blocks(self) -> int:
        return len(self.indices) - 1

    def block_slices(self) -> list[tuple[int, int]]:
        """Interval index ranges [lo, hi) covered by each block (1-based k shifted to 0-based)."""
        return [(self.indices[i], self.indices[i + 1]) for i in range(self.blocks)]


@dataclass(frozen=True)
class DensityReport:
    """Per-block density audit against a tolerance epsilon."""

    epsilon: float
    block_lengths: tuple[float, ...]
    deviations: tuple[float, ...]
    targets: tuple[float, ...]

    # Block lengths come out of linspace partitions a few ulps off their
    # analytic value, so an epsilon chosen exactly at the bound must not
    # flip on roundoff.
    _slack = 1e-12

    @property
    def max_block_length(self) -> float:
        return max(self.block_lengths)

    @property
    def max_deviation(self) -> float:
        return max(self.deviations)

    @property
    def passed(self) -> bool:
        bound = self.epsilon + self._slack
        return self.max_block_length <= bound and self.max_deviation <= bound


def make_uniform_partition(s: float, T: float, n: int) -> Partition:
    """n equal intervals spanning [s, T]."""
    if not T > s:
        raise ScheduleError("need T > s")
    if n < 1:
        raise ScheduleError("need at least one interval")
    return Partition(np.linspace(float(s), float(T), int(n) + 1))


def make_marks(
    partition: Partition, prio: PrioritySpec, block: int
) -> tuple[MarkSequence, SubGrid]:
    """Greedy 0/1 marks matching a time-only priority on blocks of ``block`` intervals.

    The priority is evaluated once per block, at the block's starting
    time, in one table over the block starts.  Interval k receives mark 1
    exactly when the mass of ones so far would otherwise fall below the
    accumulated target mass through the end of interval k.  The deficit
    is not reset at block seams, so a fractional target (say p = 0.5 with
    odd blocks) alternates which side of the target each block lands on
    rather than biasing them all the same way.  Blocks have ``block``
    intervals each except possibly a shorter final one.
    """
    if not prio.time_only:
        raise ScheduleError("deterministic marks need a time-only priority")
    block = int(block)
    if block < 1:
        raise ScheduleError("block must be a positive number of intervals")
    n = partition.intervals
    subgrid = SubGrid(tuple(range(0, n, block)) + (n,))
    times = partition.times
    steps = partition.steps
    # Ties mean the mass is already on target and must not take; rounding in
    # the accumulated sums can push an exact tie either way, so demand a
    # genuine shortfall before taking.
    tie_tol = 1e-12 * float(times[-1] - times[0])
    marks: list[int] = []
    ones_mass = 0.0
    base_mass = 0.0
    blocks = subgrid.block_slices()
    targets = prio.time_values(times[[lo for lo, _ in blocks]]).tolist()
    for (lo, hi), target in zip(blocks, targets):
        for k in range(lo, hi):
            goal = base_mass + target * float(times[k + 1] - times[lo])
            take = ones_mass < goal - tie_tol
            marks.append(1 if take else 0)
            if take:
                ones_mass += float(steps[k])
        base_mass += target * float(times[hi] - times[lo])
    return MarkSequence(tuple(marks)), subgrid


def check_density(
    partition: Partition,
    marks: MarkSequence,
    subgrid: SubGrid,
    prio: PrioritySpec,
    epsilon: float,
) -> DensityReport:
    """Audit block lengths and time-weighted mark fractions against epsilon.

    Each block must be shorter than epsilon in time, and its weighted
    fraction of ones must lie within epsilon of the priority at the block
    start.  Works for any marks, not only greedy ones.
    """
    # NaN fails the comparison
    if not epsilon > 0.0:
        raise ScheduleError(f"epsilon must be positive, got {epsilon}")
    if len(marks) != partition.intervals:
        raise ScheduleError("need one mark per partition interval")
    if subgrid.indices[-1] != partition.intervals:
        raise ScheduleError("sub-grid must end at the last partition index")
    if not prio.time_only:
        raise ScheduleError("density audit needs a time-only priority")
    steps = partition.steps
    xi = marks.array
    lengths: list[float] = []
    deviations: list[float] = []
    blocks = subgrid.block_slices()
    targets = prio.time_values(partition.times[[lo for lo, _ in blocks]]).tolist()
    for (lo, hi), target in zip(blocks, targets):
        duration = float(partition.times[hi] - partition.times[lo])
        ones_mass = float(np.sum(steps[lo:hi] * xi[lo:hi]))
        lengths.append(duration)
        deviations.append(abs(ones_mass / duration - target))
    return DensityReport(
        epsilon=float(epsilon),
        block_lengths=tuple(lengths),
        deviations=tuple(deviations),
        targets=tuple(targets),
    )
