"""Monotone explicit finite differences for the priority-weighted Isaacs equation.

The terminal-value problem  -v_t - H(t, x, v_x, v_xx) = 0,  v(T, .) = g
is marched backward in time on a uniform interval grid.  H is the blend

    H = p * (max_u min_v L) + (1 - p) * (min_v max_u L)

with L(t,x,u,v; q, M) = b q + 0.5 (sigma sigma^T) M evaluated per action
pair; every mode is a priority per step (lower p = 1, upper p = 0, mixed
p(t, x)).  First derivatives are upwinded against the sign of b inside the
action-pair enumeration, second derivatives are central, and the boundary
uses zero-slope ghost copies.  Written on the differences to the two
neighbours, one step of a pair is

    dt L = w+ (W(j+1) - W(j)) + w- (W(j-1) - W(j)),
    w+ = dt (b+/dx + sigma sigma^T / 2dx^2),  w- = dt (b-/dx + sigma sigma^T / 2dx^2)

with b+ = max(b, 0) and b- = max(-b, 0).  Under the step bound from
:func:`cfl_max_dt` these stencil weights are non-negative and sum to at
most 1, so every update is a convex combination of neighboring values:
the scheme is monotone and bounded by the terminal data, which is the
property that makes the discrete values converge to the viscosity
solution as the grid refines (Barles and Souganidis, 1991).

The coefficients enter through a table of b and sigma sigma^T for every
action pair and node (:func:`coefficient_table`, shape (ku, kv, n)), the
one-dimensional view of :meth:`isaacslab.problem.ProblemSpec.coefficient_table`,
which evaluates drift and diffusion over all pairs in one call.  The lattice
engine reads the same view.  The coefficients ignore t (the contract of
the coefficient families in :mod:`isaacslab.problem`), so the table, and
from it the weights (w+, w-, 1) on the rows (D+, D-, W), are built once
before the march, and :func:`cfl_max_dt` scans one table.  A step is then
a controlled Markov chain's one-step expectation W + w+ D+ + w- D-
(Kushner and Dupuis, 2001, ch. 5): one (ku kv, 3) @ (3, n) matrix product
when the weights are equal along the nodes, as for families that ignore
the state, or an einsum over the three rows otherwise.  The march is thus
the lattice DP of :mod:`isaacslab.engine` with other weights: both run
:func:`_backward_sweep`, which values the local games with
:mod:`isaacslab.static_game`, blends them by ``mix`` straight into the
slice and checks it against the terminal bounds.  The one-sided modes and a time-only priority
are tabulated over the step times once per sweep, as the paper's rules for
a state-independent p can be set in advance, so the blend takes one float
per step; a state-dependent priority is evaluated on the nodes at every step.

State dimension is one; higher-dimensional problems are accepted by the
algebraic modules but not by this solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .problem import ProblemError, ProblemSpec
from .static_game import local_saddle, local_values, mix

__all__ = [
    "PdeError",
    "CflError",
    "BlowupError",
    "SpatialGrid",
    "ValueField",
    "coefficient_table",
    "cfl_max_dt",
    "solve",
    "isaacs_gap",
]

CFL_SAFETY = 1.0 - 1e-6


class PdeError(ValueError):
    """Invalid grid or solver input."""


class CflError(PdeError):
    """Requested time step exceeds the stability bound."""


class BlowupError(RuntimeError):
    """A backward sweep produced values outside the payoff bounds or non-finite."""


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1-D grid of ``nodes`` points spanning [lower, upper]."""

    lower: float
    upper: float
    nodes: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise PdeError("grid bounds must be finite")
        if not self.upper > self.lower:
            raise PdeError("grid needs upper > lower")
        if int(self.nodes) < 3:
            raise PdeError("grid needs at least three nodes")
        object.__setattr__(self, "lower", float(self.lower))
        object.__setattr__(self, "upper", float(self.upper))
        object.__setattr__(self, "nodes", int(self.nodes))

    @property
    def dx(self) -> float:
        return (self.upper - self.lower) / (self.nodes - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        """The nodes, built once per grid and read-only, since every caller shares them."""
        xs = np.linspace(self.lower, self.upper, self.nodes)
        xs.flags.writeable = False
        return xs

    def nearest_index(self, x: np.ndarray) -> np.ndarray:
        """Index of the closest node, clamped to the grid.

        Works in place on one float buffer, clamped in one pass: forward
        play calls this once per interval and strategy pair on every path.
        """
        idx = np.asarray(np.subtract(x, self.lower, dtype=float))
        np.divide(idx, self.dx, out=idx)
        np.rint(idx, out=idx)
        np.clip(idx, 0.0, self.nodes - 1, out=idx)
        return idx.astype(int)


@dataclass(frozen=True)
class ValueField:
    """Values W[k, j] ~ v(times[k], xs[j]) on a time-space product grid."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self._store(self.times, self.values)
        # min and max propagate NaN and reach any infinity, so this tests every
        # entry without a boolean temporary the size of the field
        values = self.values
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise PdeError("value field entries must be finite")

    @classmethod
    def _bounded(cls, grid: SpatialGrid, times, values) -> ValueField:
        """A field whose slices the caller held within finite bounds: finite, so not scanned."""
        field = cls.__new__(cls)
        object.__setattr__(field, "grid", grid)
        field._store(times, values)
        return field

    def _store(self, times, values) -> None:
        """Set times and values as float arrays after checking their order and shape."""
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if times.ndim != 1 or not np.all(np.diff(times) > 0.0):
            raise PdeError("times must be strictly increasing")
        if values.shape != (times.size, self.grid.nodes):
            raise PdeError(
                f"values must have shape {(times.size, self.grid.nodes)}, got {values.shape}"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def initial_slice(self) -> np.ndarray:
        return self.values[0]

    @property
    def final_slice(self) -> np.ndarray:
        return self.values[-1]

    def slice_at(self, t: float, atol: float = 1e-9) -> np.ndarray:
        k = int(np.argmin(np.abs(self.times - t)))
        if abs(float(self.times[k]) - t) > atol:
            raise PdeError(f"no time slice at {t}")
        return self.values[k]

    def value_at(self, t: float, x: float) -> float:
        """Bilinear interpolation in (t, x); past either edge in x, the edge value."""
        times = self.times
        if not times[0] - 1e-12 <= t <= times[-1] + 1e-12:
            raise PdeError(f"time {t} outside [{times[0]}, {times[-1]}]")
        t = min(max(t, float(times[0])), float(times[-1]))
        k = int(np.searchsorted(times, t, side="right") - 1)
        k = min(max(k, 0), times.size - 2) if times.size > 1 else 0
        xs = self.grid.xs
        lo = float(np.interp(x, xs, self.values[k]))
        if times.size == 1:
            return lo
        hi = float(np.interp(x, xs, self.values[k + 1]))
        w = (t - float(times[k])) / float(times[k + 1] - times[k])
        return (1.0 - w) * lo + w * hi


def coefficient_table(
    spec: ProblemSpec, t: float, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drift b and sigma sigma^T at time t for every action pair and node.

    The one-dimensional view of :meth:`ProblemSpec.coefficient_table`:
    both arrays have shape (ku, kv, n), and entry [a, c, j] belongs to the
    pair (u_a, v_c) at node xs[j].
    """
    if spec.dim != 1:
        raise ProblemError("the finite-difference solver handles state dimension 1")
    b, sig = spec.coefficient_table(t, xs[:, None])
    sig = sig[..., 0, :]
    return b[..., 0], np.sum(sig * sig, axis=-1)


def cfl_max_dt(spec: ProblemSpec, grid: SpatialGrid) -> float:
    """Largest stable explicit step: (1 - 1e-6) / (max|b|/dx + max(sigma^2)/dx^2).

    The extremes are scanned over all grid nodes and all action pairs of
    the coefficient table at the start time, which is exact at every time
    because the coefficients ignore t.  A zero denominator (no drift, no
    noise) returns the horizon length.
    """
    b, s2 = coefficient_table(spec, spec.start_time, grid.xs)
    max_b = float(np.max(np.abs(b)))
    max_s2 = float(np.max(s2))
    dx = grid.dx
    denom = max_b / dx + max_s2 / dx**2
    if denom == 0.0:
        return spec.horizon - spec.start_time
    return CFL_SAFETY / denom


def _backward_sweep(spec, grid, times, expect, p_steps, p_at, strategy_starts, *,
                    track_order=False):
    """The one backward sweep of the march and the DP, over the intervals of ``times``.

    Interval k values each node at mix(p, lower, upper) of the local games
    ``expect(k, V)``, shape (ku, kv, nodes), on the known slice V.  Its p is
    ``p_steps[k]`` (a 0/1 mark or a one-sided mode) or, when that is None,
    p at ``p_at[k]``: tabulated once in sweep order for a time-only p, so a
    range error names the t the sweep meets first, else read at the nodes.
    Strategy rows come from :func:`local_saddle` at each interval in
    ``strategy_starts`` (ties to the lowest index), written straight into
    the row tables, and every other interval needs only
    :func:`local_values`.  ``mix`` writes the blend straight into
    ``values[k]``.  Both solvers' weights are convex, so a
    slice outside the terminal bounds raises :class:`BlowupError`.  Returns
    the field, the rows (u_plain, u_counter, v_plain, v_counter) and the
    largest lower - upper seen, which is scanned for only with
    ``track_order`` (else 0.0), as only the DP reports it.
    """
    X = grid.xs[:, None]
    n = times.size - 1
    ku, kv = spec.actions_u.size, spec.actions_v.size
    values = np.empty((n + 1, grid.nodes))
    values[n] = spec.payoff_values(X)
    # 1e-9 of max|g| (absolute below 1) absorbs the ulps that convex weights round
    slack = 1e-9 * max(1.0, float(np.abs(values[n]).max()))
    lo_bound = float(values[n].min()) - slack
    hi_bound = float(values[n].max()) + slack
    if p_steps is None and spec.priority.time_only:
        p_steps = spec.priority.time_values(p_at[::-1]).tolist()[::-1]
    rows = len(strategy_starts)
    u_plain = np.zeros((rows, grid.nodes), dtype=int)
    u_counter = np.zeros((rows, grid.nodes, kv), dtype=int)
    v_plain = np.zeros((rows, grid.nodes), dtype=int)
    v_counter = np.zeros((rows, grid.nodes, ku), dtype=int)
    start_lookup = {k: r for r, k in enumerate(strategy_starts)}
    worst = 0.0
    for k in range(n - 1, -1, -1):
        f = expect(k, values[k + 1])
        r = start_lookup.get(k)
        if r is None:
            lower, upper = local_values(f)
        else:
            rows_out = (u_plain[r], u_counter[r].T, v_plain[r], v_counter[r].T)
            lower, upper = local_saddle(f, out=rows_out)[:2]
        # max(0.0, nan) is 0.0 and NaN is never greater, so the guard keeps the value
        if track_order and np.greater(lower, upper).any():
            worst = max(worst, float(np.max(lower - upper)))
        p = spec.priority_values(float(p_at[k]), X) if p_steps is None else p_steps[k]
        mix(p, lower, upper, out=values[k])
        # NaN fails both comparisons and an infinity fails a bound
        lo, hi = values[k].min(), values[k].max()
        if not (lo >= lo_bound and hi <= hi_bound):
            raise BlowupError(
                f"slice at t={float(times[k])} left the terminal bounds; a monotone "
                "sweep stays inside them, so its step is unstable or its input not finite"
            )
    # finite bounds held on every slice certify the field finite, so it skips the scan
    bounded = np.isfinite(lo_bound) and np.isfinite(hi_bound)
    field = (ValueField._bounded if bounded else ValueField)(grid, times, values)
    return field, (u_plain, u_counter, v_plain, v_counter), worst


def solve(
    spec: ProblemSpec,
    grid: SpatialGrid,
    dt: float,
    hamiltonian: str = "mixed",
) -> ValueField:
    """March the chosen Hamiltonian backward from g over [start_time, T].

    ``dt`` is an upper bound on the actual uniform step: the number of
    steps is rounded up so the march lands exactly on the start time.
    Raises :class:`CflError` if dt exceeds :func:`cfl_max_dt` and
    :class:`BlowupError` if any slice leaves the terminal bounds (the
    monotone scheme never does unless the stability bound was violated).
    A step too small to move the time past the float spacing at the start
    time raises :class:`PdeError` before the march.
    The update is v(t - dt, x) = v(t, x) + dt * H(t, x, Dv(t), D2v(t)):
    coefficients, priority and differences all read the known slice.
    The coefficients ignore t, so the coefficient table
    (:func:`coefficient_table`) and the weights w+, w- and 1 on
    D+ = W(j+1) - W(j), D- = W(j-1) - W(j) and W are built once before the
    march.  Each step's local games W + dt L[u, v, j] are one matrix product
    when the weights are equal along the nodes and one einsum when not (a
    NaN weight never is equal, so it reaches the blow-up check).  The einsum
    adds w+ D+ + w- D- to W: its lower and upper games are W plus those of
    dt L bitwise, and its mixed blend is within a few ulps of W plus theirs;
    the product may round its sum once, to a few ulps of |W| per step.
    Each step blends lower and upper by its priority: 1.0 (lower) or 0.0
    (upper) at every step, or in mixed mode a time-only p tabulated once
    over the step times
    (:meth:`PrioritySpec.time_values`, which raises before the march if p
    leaves [0, 1]) or a state-dependent p evaluated on the nodes.
    """
    if hamiltonian not in ("lower", "upper", "mixed"):
        raise PdeError(f"unknown hamiltonian mode {hamiltonian!r}")
    # NaN fails the comparison
    if not dt > 0.0:
        raise PdeError(f"dt must be positive, got {dt}")
    span = spec.horizon - spec.start_time
    if span == 0.0:
        # zero horizon: the value is the terminal condition itself and no
        # step is ever taken, so dt needs no stability check
        terminal = spec.payoff_values(grid.xs[:, None]).astype(float)
        return ValueField(
            grid=grid, times=np.array([spec.horizon]), values=terminal[None, :]
        )
    limit = cfl_max_dt(spec, grid)
    if dt > limit * (1.0 + 1e-12):
        raise CflError(f"dt={dt} exceeds stability bound {limit}")
    m = max(1, int(np.ceil(span / dt - 1e-12)))
    dt_eff = span / m
    times = spec.start_time + np.arange(m + 1) * dt_eff
    # a step below the float spacing near the start time repeats step times
    if not np.all(times[1:] > times[:-1]):
        raise PdeError(
            f"the time grid collapses: step {dt_eff:.3g} against a float spacing "
            f"of {np.spacing(spec.start_time):.3g} at the start time {spec.start_time:.6g}"
        )
    dx = grid.dx
    b, s2 = coefficient_table(spec, float(times[m]), grid.xs)
    # w[0], w[1] and w[2] weigh D+, D- and W: the upwind drift and half the
    # central second difference, scaled by the step, and the known value
    diffusion = s2 / (2.0 * dx**2)
    w = np.stack([dt_eff * (np.maximum(b, 0.0) / dx + diffusion),
                  dt_eff * (np.maximum(-b, 0.0) / dx + diffusion), np.ones_like(b)])
    # zero-slope ghosts: D+ at the last node and D- at the first stay 0
    rows = np.zeros((3, grid.nodes))
    f = np.empty(b.shape)
    # weights equal along the nodes (NaN never is) make f one
    # (ku kv, 3) @ (3, n) product; otherwise it is w[0] D+ + w[1] D- + W
    uniform = bool(np.all(w == w[..., :1]))
    pair_weights = w[..., 0].reshape(3, -1).T
    pair_f = f.reshape(-1, grid.nodes)

    def expect(k, V):
        np.subtract(V[1:], V[:-1], out=rows[0, :-1])
        np.subtract(V[:-1], V[1:], out=rows[1, 1:])
        rows[2] = V
        if uniform:
            np.matmul(pair_weights, rows, out=pair_f)
        else:
            np.einsum("iuvj,ij->uvj", w, rows, out=f)
        return f

    p_steps = None if hamiltonian == "mixed" else [1.0 if hamiltonian == "lower" else 0.0] * m
    return _backward_sweep(spec, grid, times, expect, p_steps, times[1:], ())[0]


def isaacs_gap(spec: ProblemSpec, grid: SpatialGrid, dt: float) -> ValueField:
    """Field of upper minus lower solution values: where information matters.

    Both one-sided equations are solved on the same grid and steps; the
    difference is non-negative up to rounding, and strictly positive
    wherever the order of moves changes the local game.
    """
    low = solve(spec, grid, dt, hamiltonian="lower")
    up = solve(spec, grid, dt, hamiltonian="upper")
    return ValueField(grid=grid, times=low.times, values=up.values - low.values)
