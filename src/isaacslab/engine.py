"""Lattice games, backward induction, and Monte Carlo play.

The continuous dynamics are replaced by a controlled lattice chain: from
node x over interval [t_k, t_k+1] with actions (u, v), the state moves to
x + b dt + sigma sqrt(dt) zeta_q with Gauss-Hermite abscissas zeta_q and
weights w_q, matching the Gaussian one-step mean and variance exactly.
Successors depend on the interval only through dt, so they are stored once
per distinct step (a uniform partition has a handful), action pair first
as in the coefficient table, and the lattice's ``expect`` method is the
one-step expectation the backward sweep reads, laid out (ku, kv, nodes).
Off-lattice successors are evaluated by linear interpolation, which keeps
the backward operator monotone; queries beyond the grid clamp to the edge
value, the probabilistic counterpart of the solver's zero-slope boundary.
The successors are fixed per distinct step, so each slab's interpolation
stencil is found once, when the lattice is built: every successor's left
node, in the narrowest unsigned dtype, and the successors that read a node
value as is.  An interval then searches nothing: it gathers numpy's own
interpolation formula from the stencil, bitwise ``np.interp``.

Each interval is a batch of one-period matrix games on the continuation
values, one per node, valued by the backward sweep that the PDE march runs
too (:mod:`isaacslab.pde`), which also keeps every slice inside the terminal
bounds.  Who moves second is decided per interval by a priority p, the
probability that v sees u: a 0/1 mark (deterministic rule) is a p of 1 or 0,
and the coin rule reads p(t_k), or p(t_k, x) at each state.  Backward
induction values each node at the p-blend of the lower and upper values,
which is the lower value itself at p = 1 and the upper value itself at
p = 0, and the maximizing/minimizing choices yield Markov strategy tables:
a plain action for leading and a counter map for responding.

Monte Carlo play re-runs the same rounds forward with frozen actions per
interval, snapping states to the nearest node for strategy lookup while
keeping raw states for the dynamics.  Each round a strategy names its
moves once, a plain action and a counter map on the opponent's, and the
priority decides which one it plays.  A pair of
Markov tables plays by node and coin alone, so its interval is resolved
once per (coin face, node) key, 2 * nodes of them, and each path reads its
frozen lane by key; strategies that remember the previous node are
resolved per path.  The coefficients are frozen with the actions, and
every coefficient family's one-interval law is then Gaussian and known,
X' = a X + c b0 + s sigma dW (an Ornstein-Uhlenbeck step for the affine
family, X + b h + sigma dW when a = 1): each c b0 and s sigma is read once
per interval from the action-pair table at X = 0, and each path moves
once per interval by that law, in place.  Coins and Gaussian increments
come from separate seeded streams, and one coin per interval is always
consumed, so trajectories under different priorities are driven by
identical noise.
Several strategy pairs can advance in lockstep on one stream of coins and
noise (common random numbers): the exploitability roster is played that
way, in one pass that draws each coin and noise block once for every
challenger, so challengers differ by their strategies alone and never by
their draws.  Challenger tables are stored in the narrowest unsigned dtype
that holds their action indices (uint8 below 256 actions), so the whole
roster's tables fit in memory together; the backward sweep's saddle tables
stay int64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .pde import SpatialGrid, ValueField, _backward_sweep, _Stencil, coefficient_table
from .problem import ProblemError, ProblemSpec
from .schedule import MarkSequence, Partition, ScheduleError, SubGrid

__all__ = [
    "EngineError",
    "GridTooCoarseError",
    "NoiseSource",
    "CoinSource",
    "TransitionModel",
    "build_lattice",
    "MarkovStrategyU",
    "MarkovStrategyV",
    "HashFeedbackStrategyU",
    "HashFeedbackStrategyV",
    "GameValueTables",
    "dp_value_random",
    "dp_value_deterministic",
    "DeterministicMode",
    "RandomMode",
    "PathRecord",
    "SimulationResult",
    "simulate",
    "ChallengerResult",
    "ExploitabilityReport",
    "exploitability",
    "random_markov_strategy",
    "perturbed_strategy",
]

QUAD_CHOICES = (3, 5, 7)


class EngineError(ValueError):
    """Invalid lattice, strategy, or simulation input."""


class GridTooCoarseError(EngineError):
    """One lattice step overshoots half the domain: the grid cannot carry the dynamics."""


# --- randomness ----------------------------------------------------------------


def _check_seed(seed: int) -> int:
    """The seed as an int; numpy takes no negative seed, so one raises here."""
    seed = int(seed)
    if seed < 0:
        raise EngineError(f"seed must be non-negative, got {seed}")
    return seed


class _SeededStream:
    """A seeded generator and a count of its draws."""

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        self._rng = np.random.default_rng(self.seed)
        self.draws = 0


class NoiseSource(_SeededStream):
    """Seeded stream of Gaussian increments for forward play.

    Draw order is fixed (one (paths, noise_dim) block per interval, the
    increment of its one move), so two runs with equal seeds and equal
    shapes see identical noise.  A block is bitwise the generator's
    ``normal(0, sqrt(dt), size)``, formed with one temporary: standard
    normals scaled in place.  ``draws`` counts that stream alone.
    ``bridge`` splits increments for an audit trail with a second
    generator derived from the seed, so recording paths never shifts the
    main stream.
    """

    def __init__(self, seed: int):
        super().__init__(seed)
        self._bridge_rng = np.random.default_rng([self.seed, 1])

    def increments(self, paths: int, noise_dim: int, dt: float) -> np.ndarray:
        self.draws += paths * noise_dim
        # numpy forms normal(0, s) as 0.0 + s z per draw; scaling the standard
        # normals in place and adding 0.0 (a -0.0 becomes +0.0) is those bits
        dW = self._rng.standard_normal((paths, noise_dim))
        dW *= np.sqrt(dt)
        dW += 0.0
        return dW

    def bridge(self, dW: np.ndarray, substeps: int, dt: float) -> np.ndarray:
        """Brownian-bridge split of increments dW ~ N(0, dt) into ``substeps`` parts.

        Returns dW / S + sqrt(dt / S) (Z_s - mean_s Z_s), shape
        (substeps, *dW.shape), for standard normals Z from the bridge
        generator: given dW, the law of S independent N(0, dt / S)
        increments that sum to dW (Glasserman, 2004, section 3.1).  The
        parts sum to dW within rounding, and a single part is dW.
        """
        z = self._bridge_rng.standard_normal((substeps,) + dW.shape)
        z -= z.mean(axis=0)
        return dW / substeps + np.sqrt(dt / substeps) * z


class CoinSource(_SeededStream):
    """Seeded stream of uniforms on [0, 1) deciding who moves second.

    Kept separate from the noise stream so that consuming coins never
    shifts the Gaussian draws; uniform draws compared against p are
    exactly as good as transformed normals for a Bernoulli(p) outcome.
    """

    def uniforms(self, paths: int) -> np.ndarray:
        self.draws += paths
        return self._rng.random(paths)


# --- lattice -------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionModel:
    """Gauss-Hermite successor positions for every (interval, node, u, v).

    A successor depends on the interval only through its step dt_k, so the
    positions are stored once per distinct step: ``slabs`` has shape
    (distinct steps, ku, kv, nodes, q) and interval k reads slab
    ``slab_of[k]``.  Positions are raw (unclamped); interpolation clamps
    at query time.  Each slab has its interpolation stencil in
    ``stencils``, found once when the lattice is built: every successor's
    left node and the successors that read a node value as is, so an
    interval searches nothing.  ``expect`` is the one place where
    successors meet a value slice.  ``successors`` assembles the full
    tensor, a new array on every access, seen as (intervals, nodes, ku,
    kv, q), for checks.  ``max_protrusion`` records how far any successor
    leaves the domain.
    """

    grid: SpatialGrid
    partition: Partition
    quad_nodes: np.ndarray
    quad_weights: np.ndarray
    slabs: np.ndarray
    slab_of: np.ndarray
    stencils: tuple[_Stencil, ...]
    max_protrusion: float

    @property
    def quad_points(self) -> int:
        return self.quad_nodes.size

    @property
    def successors(self) -> np.ndarray:
        """The (intervals, nodes, ku, kv, q) view of a tensor assembled anew on each access."""
        return self.slabs[self.slab_of].transpose(0, 3, 1, 2, 4)

    def expect(self, k: int, values: np.ndarray) -> np.ndarray:
        """One-step expectation of the node values over interval k, shape (ku, kv, nodes).

        The successors are interpolated linearly in ``values`` (one entry
        per grid node, clamped beyond the edges) by the slab's stencil,
        bitwise ``np.interp``, and weighted by the quadrature weights, one
        matrix-vector product per action pair.
        """
        return self.stencils[self.slab_of[k]](values) @ self.quad_weights

    def moment_errors(self, spec: ProblemSpec) -> tuple[float, float]:
        """Worst absolute error of lattice mean and variance vs b dt and sigma^2 dt."""
        xs = self.grid.xs
        w = self.quad_weights
        err_mean = 0.0
        err_var = 0.0
        b, s2 = coefficient_table(spec, float(self.partition.times[0]), xs)
        # every interval of a slab has the slab's step, bit for bit
        dts = np.empty(self.slabs.shape[0])
        dts[self.slab_of] = self.partition.steps
        for dt, succ in zip(dts.tolist(), self.slabs):
            mean = succ @ w
            var = ((succ - mean[..., None]) ** 2) @ w
            err_mean = max(err_mean, float(np.max(np.abs(mean - (xs + b * dt)))))
            err_var = max(err_var, float(np.max(np.abs(var - s2 * dt))))
        return err_mean, err_var


def _gauss_hermite_unit(q: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissas and weights of a unit normal: q-point exactness up to degree 2q-1."""
    nodes, weights = hermgauss(q)
    return nodes * np.sqrt(2.0), weights / np.sqrt(np.pi)


def build_lattice(
    spec: ProblemSpec,
    grid: SpatialGrid,
    partition: Partition,
    quad_points: int = 3,
) -> TransitionModel:
    """Tabulate successor positions for every distinct step, node and action pair.

    Intervals of equal step share one slab, computed from that step as a
    Python float, so each slab is bitwise the successors of every interval
    it stands for, and one interpolation stencil, searched here once.  The
    partition must end at the horizon (the terminal slice carries g) and
    start no earlier than time zero.  Raises
    :class:`GridTooCoarseError` when a single step can overshoot half the
    domain width: no amount of clamping makes such a lattice meaningful.
    """
    if spec.dim != 1:
        raise EngineError("the lattice engine handles state dimension 1")
    if quad_points not in QUAD_CHOICES:
        raise EngineError(f"quad_points must be one of {QUAD_CHOICES}")
    if partition.start < 0.0 or abs(partition.end - spec.horizon) > 1e-12:
        raise EngineError("partition must span [s, T] with s >= 0 and end at the horizon")
    zeta, w = _gauss_hermite_unit(quad_points)
    xs = grid.xs
    ku, kv = spec.actions_u.size, spec.actions_v.size
    dts, slab_of = np.unique(partition.steps, return_inverse=True)
    slabs = np.empty((dts.size, ku, kv, xs.size, quad_points))
    # the coefficients ignore t, so the table at the first time serves every interval
    b, s2 = coefficient_table(spec, float(partition.times[0]), xs)
    for j, dt in enumerate(dts.tolist()):
        slabs[j] = xs[:, None] + b[..., None] * dt + np.sqrt(s2)[..., None] * np.sqrt(dt) * zeta
    slabs.flags.writeable = False
    protrusion = max(
        float(grid.lower - slabs.min()), float(slabs.max() - grid.upper), 0.0
    )
    if protrusion > 0.5 * (grid.upper - grid.lower):
        raise GridTooCoarseError(
            f"a lattice step leaves the domain by {protrusion:.3g}, more than half "
            f"the domain width; enlarge the domain or refine the partition"
        )
    return TransitionModel(
        grid=grid,
        partition=partition,
        quad_nodes=zeta,
        quad_weights=w,
        slabs=slabs,
        slab_of=slab_of,
        stencils=tuple(_Stencil(xs, slab) for slab in slabs),
        max_protrusion=protrusion,
    )


# --- strategies ------------------------------------------------------------------


def _integer_table(table) -> np.ndarray:
    """An action table as an array, keeping an integer dtype and casting others to int."""
    table = np.asarray(table)
    return table if table.dtype.kind in "iu" else table.astype(int)


def _action_dtype(n_own: int) -> np.dtype:
    """The narrowest unsigned dtype that holds every action index below ``n_own``."""
    return np.min_scalar_type(max(int(n_own) - 1, 0))


class _MarkovTable:
    """Node-indexed action tables, piecewise constant over interval blocks.

    ``starts[r]`` is the first interval index where row r applies; rows
    apply until the next start.  ``plain`` is (rows, nodes) of own action
    indices for leading; ``counter`` is (rows, nodes, opponent actions)
    of own action indices for responding.  The tables keep the integer
    dtype they are given (a challenger's may be uint8), and the action
    accessors return ``np.intp`` either way, so callers never do index
    arithmetic in a narrow dtype.

    Every strategy answers ``moves(k, nodes, prev)`` with its own actions
    at ``nodes`` and a pure function mapping the opponent's actions there
    to its replies.  ``prev`` holds each path's node index at the previous
    interval (``None`` at k = 0); a Markov table ignores it.
    """

    def __init__(self, grid: SpatialGrid, starts, plain, counter):
        starts = tuple(int(s) for s in starts)
        plain = _integer_table(plain)
        counter = np.ascontiguousarray(_integer_table(counter))
        if not starts or starts[0] != 0 or any(
            b <= a for a, b in zip(starts, starts[1:])
        ):
            raise EngineError("strategy starts must begin at 0 and increase")
        if plain.ndim != 2 or counter.ndim != 3:
            raise EngineError("plain must be (rows, nodes), counter (rows, nodes, opp)")
        if plain.shape[0] != len(starts) or counter.shape[:2] != plain.shape:
            raise EngineError("strategy table shapes do not match the starts")
        if plain.shape[1] != grid.nodes:
            raise EngineError("strategy tables must have one column per grid node")
        if plain.min() < 0 or counter.min() < 0:
            raise EngineError("action indices must be non-negative")
        self.grid = grid
        self.starts = starts
        self.plain = plain
        self.counter = counter
        # each row's (node, opponent) map flattened, a view of ``counter``
        self._counter_rows = counter.reshape(counter.shape[0], -1)
        self._start_arr = np.asarray(starts, dtype=int)

    def _row(self, k: int) -> int:
        r = int(np.searchsorted(self._start_arr, k, side="right") - 1)
        if r < 0:
            raise EngineError(f"interval {k} precedes the first strategy row")
        return r

    def moves(self, k: int, nodes: np.ndarray, prev) -> tuple[np.ndarray, Callable]:
        r = self._row(k)
        n_opp = self.counter.shape[2]

        def counter(opp: np.ndarray) -> np.ndarray:
            # the flat index would read an out-of-range opp from a neighbouring
            # node; a negative one wraps above the range in the uint64 view
            opp = opp.astype(np.intp, casting="same_kind", copy=False)
            if opp.view(np.uint64).max() >= n_opp:
                raise EngineError(f"opponent action index outside [0, {n_opp})")
            flat = nodes * n_opp
            flat += opp
            return self._counter_rows[r].take(flat).astype(np.intp, copy=False)

        return self.plain[r].take(nodes).astype(np.intp, copy=False), counter


class MarkovStrategyU(_MarkovTable):
    """u's tables: plain action per node, counter map per (node, v-action)."""


class MarkovStrategyV(_MarkovTable):
    """v's tables: plain action per node, counter map per (node, u-action)."""


_U64 = (1 << 64) - 1


def _mix_into(acc: np.ndarray, value, tmp: np.ndarray) -> np.ndarray:
    """Continue splitmix64 in ``acc`` (uint64, wrapping, in place) by an int or an int array.

    A value enters by its two's complement bits; ``tmp`` holds each shift.
    """
    if isinstance(value, np.ndarray):
        acc += value.astype(np.int64, copy=False).view(np.uint64)
    else:
        acc += np.uint64(int(value) & _U64)
    acc += np.uint64(0x9E3779B97F4A7C15)
    np.right_shift(acc, np.uint64(30), out=tmp)
    acc ^= tmp
    acc *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(acc, np.uint64(27), out=tmp)
    acc ^= tmp
    acc *= np.uint64(0x94D049BB133111EB)
    np.right_shift(acc, np.uint64(31), out=tmp)
    acc ^= tmp
    return acc


def _mix_int(acc: int, value: int) -> int:
    """:func:`_mix_into` on one value, in Python ints: a scalar prefix costs no array passes."""
    acc = (acc + (value & _U64) + 0x9E3779B97F4A7C15) & _U64
    acc = ((acc ^ acc >> 30) * 0xBF58476D1CE4E5B9) & _U64
    acc = ((acc ^ acc >> 27) * 0x94D049BB133111EB) & _U64
    return acc ^ acc >> 31


def _remainder(acc: np.ndarray, n: np.uint64, out: np.ndarray) -> np.ndarray:
    """``acc % n`` for uint64 ``acc`` and n >= 1, written to ``out`` and seen as intp.

    Bitwise the remainder, as acc - acc // n * n: numpy divides uint64 by a
    scalar through libdivide, where ``%`` runs one hardware division per
    element.  The remainder is below n, so its intp view is its value.
    """
    np.floor_divide(acc, n, out=out)
    out *= n
    np.subtract(acc, out, out=out)
    return out.view(np.intp)


class _HashFeedback:
    """History-dependent challenger: a hash of (interval, node, last node, opponent).

    Deterministic given the seed; serves as an arbitrary feedback
    strategy that reacts to the discretized path, not only the current
    node.  The last node is ``prev``, the node of the previous interval,
    taken as 0 at the first interval.

    The mix of (seed, interval) is one value, so ``moves`` mixes it once,
    continues it by every grid node, gathers that per path and continues
    it by the last node for the plain move; the counter map continues a
    copy of that hash by the opponent's action.  Each hash is reduced to
    an action by :func:`_remainder`, into a buffer the mix already holds.
    """

    def __init__(self, grid: SpatialGrid, n_actions: int, seed: int):
        if n_actions < 1:
            raise EngineError("need at least one action")
        self.grid = grid
        self.n_actions = int(n_actions)
        self.seed = int(seed)

    def moves(self, k: int, nodes: np.ndarray, prev) -> tuple[np.ndarray, Callable]:
        per_node = np.full(self.grid.nodes, _mix_int(_mix_int(0, self.seed), k), dtype=np.uint64)
        _mix_into(per_node, np.arange(self.grid.nodes), np.empty_like(per_node))
        acc = per_node.take(nodes)
        tmp = np.empty_like(acc)
        _mix_into(acc, 0 if prev is None else prev, tmp)
        n = np.uint64(self.n_actions)

        def counter(opp: np.ndarray) -> np.ndarray:
            reply = acc.copy()
            work = np.empty_like(reply)
            return _remainder(_mix_into(reply, opp, work), n, work)

        return _remainder(acc, n, tmp), counter


class HashFeedbackStrategyU(_HashFeedback):
    """Feedback challenger on u's side."""


class HashFeedbackStrategyV(_HashFeedback):
    """Feedback challenger on v's side."""


def random_markov_strategy(
    side: str,
    grid: SpatialGrid,
    partition: Partition,
    n_own: int,
    n_opp: int,
    seed: int,
):
    """Uniformly random per-interval Markov tables; a weak but fair challenger.

    The draws are int64 and stored in the narrowest unsigned dtype that
    holds ``n_own - 1``, value for value.  ``side`` is ``"u"`` or ``"v"``.
    """
    if side not in ("u", "v"):
        raise EngineError(f"side must be 'u' or 'v', got {side!r}")
    rng = np.random.default_rng(_check_seed(seed))
    rows = partition.intervals
    dtype = _action_dtype(n_own)
    plain = rng.integers(0, n_own, size=(rows, grid.nodes)).astype(dtype)
    counter = rng.integers(0, n_own, size=(rows, grid.nodes, n_opp)).astype(dtype)
    cls = MarkovStrategyU if side == "u" else MarkovStrategyV
    return cls(grid, tuple(range(rows)), plain, counter)


def perturbed_strategy(base: _MarkovTable, flip_fraction: float, seed: int, n_own: int):
    """Re-randomize a fraction of a Markov table's entries: a local challenger.

    Replacements are drawn uniformly from the side's ``n_own`` actions, so
    an action the base table never plays can still be tried.  The copy is
    stored in the narrowest unsigned dtype that holds ``n_own - 1``.
    """
    if not 0.0 <= flip_fraction <= 1.0:
        raise EngineError("flip fraction must lie in [0, 1]")
    if n_own <= max(base.plain.max(), base.counter.max()):
        raise EngineError("the table plays an action beyond the side's action count")
    rng = np.random.default_rng(_check_seed(seed))
    # every base action is non-negative and below n_own, so the cast is exact
    dtype = _action_dtype(n_own)
    plain = base.plain.astype(dtype)
    counter = base.counter.astype(dtype)
    mask_p = rng.random(plain.shape) < flip_fraction
    mask_c = rng.random(counter.shape) < flip_fraction
    plain[mask_p] = rng.integers(0, n_own, size=int(mask_p.sum()))
    counter[mask_c] = rng.integers(0, n_own, size=int(mask_c.sum()))
    return type(base)(base.grid, base.starts, plain, counter)


# --- backward induction -----------------------------------------------------------


@dataclass(frozen=True)
class GameValueTables:
    """Backward-induction output: one value field plus saddle strategy tables.

    The per-interval game has an exact saddle point (the prioritized
    one-period game's sup-inf and inf-sup coincide), so the lower and upper
    values of the discrete game are one field, stored once as ``v_minus``.
    ``max_order_violation`` records the largest pointwise violation of
    lower <= upper seen in any local game.  It is 0.0 by construction: the
    lower and upper values are a max of mins and a min of maxes of the same
    entries, which round nothing, so lower <= upper holds bitwise; and the
    running max(0.0, nan) is also 0.0.
    """

    mode: str
    grid: SpatialGrid
    partition: Partition
    v_minus: ValueField
    strategy_u: MarkovStrategyU
    strategy_v: MarkovStrategyV
    max_order_violation: float

    @property
    def v_plus(self) -> ValueField:
        """The upper value: the same field as ``v_minus``, not a copy."""
        return self.v_minus

    @property
    def value(self) -> ValueField:
        return self.v_minus

    def value_at_start(self, x: float) -> float:
        return self.value.value_at(float(self.partition.times[0]), x)


def _dp_sweep(
    mode: str,
    spec: ProblemSpec,
    lattice: TransitionModel,
    p_steps,
    strategy_starts: tuple[int, ...],
) -> GameValueTables:
    """The shared backward sweep on the lattice's expectation, p read at t_k, as tables."""
    partition = lattice.partition
    value, (u_plain, u_counter, v_plain, v_counter), worst = _backward_sweep(
        spec, lattice.grid, partition.times, lattice.expect, p_steps,
        partition.times[:-1], strategy_starts, track_order=True,
    )
    return GameValueTables(
        mode=mode,
        grid=lattice.grid,
        partition=partition,
        v_minus=value,
        strategy_u=MarkovStrategyU(lattice.grid, strategy_starts, u_plain, u_counter),
        strategy_v=MarkovStrategyV(lattice.grid, strategy_starts, v_plain, v_counter),
        max_order_violation=worst,
    )


def dp_value_random(
    spec: ProblemSpec, partition: Partition, lattice: TransitionModel
) -> GameValueTables:
    """Backward induction under the coin rule.

    Each node of each interval is valued at p(t_k, x) times the lower
    value plus (1 - p) times the upper value of the local game on the
    continuation; degenerate p reproduces the one-sided branch bitwise.
    A time-only p is tabulated once over the interval starts.  Strategies
    are extracted at every interval.  A slice outside the terminal bounds
    raises :class:`isaacslab.pde.BlowupError`.
    """
    _check_lattice(partition, lattice)
    return _dp_sweep("random", spec, lattice, None, tuple(range(partition.intervals)))


def dp_value_deterministic(
    spec: ProblemSpec,
    partition: Partition,
    marks: MarkSequence,
    subgrid: SubGrid,
    lattice: TransitionModel,
) -> GameValueTables:
    """Backward induction under a fixed mark sequence.

    Mark k is interval k's priority: 1 (v sees u) gives the lower value
    and 0 the upper value, as ``mix`` returns them.  Strategy rows are
    extracted once per sub-grid block, at the block's first interval,
    so actions persist across the block as the marks flip inside it.
    Requires a time-only priority, the regime the mark density refers to.
    """
    _check_lattice(partition, lattice)
    _check_marks(spec, partition, marks)
    if subgrid.indices[-1] != partition.intervals:
        raise ScheduleError("sub-grid must end at the last partition index")
    starts = subgrid.indices[:-1]
    return _dp_sweep("deterministic", spec, lattice, marks.marks, starts)


def _check_marks(spec: ProblemSpec, partition: Partition, marks: MarkSequence) -> None:
    if not spec.priority.time_only:
        raise ScheduleError("deterministic marks need a time-only priority")
    if len(marks) != partition.intervals:
        raise ScheduleError("need one mark per partition interval")


def _check_lattice(partition: Partition, lattice: TransitionModel) -> None:
    if lattice.partition.times.shape != partition.times.shape or not np.array_equal(
        lattice.partition.times, partition.times
    ):
        raise EngineError("lattice was built for a different partition")


# --- forward simulation -------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicMode:
    """Play under a fixed mark sequence."""

    marks: MarkSequence


@dataclass(frozen=True)
class RandomMode:
    """Play under per-interval coins from a dedicated source."""

    coins: CoinSource


@dataclass(frozen=True)
class PathRecord:
    """Full audit trail of one simulated path.

    A path moves once per interval by its family's exact law
    X' = a X + c b0 + s sigma dW.  ``noise`` is that move's increment dW
    split by a Brownian bridge into ``substeps`` parts, shape (intervals,
    substeps, noise_dim).  ``substep_states`` holds the trail's points:
    from an interval's first point X the inner points step by
    ((a - 1) X + c b0) / substeps plus s sigma times each part, and the
    last point is the path's own state, which the steps reach within
    rounding.  ``states`` are the decision-time states (every
    ``substeps``-th point).  ``who_second[k]`` is True when v saw u in
    interval k.
    """

    times: np.ndarray
    states: np.ndarray
    substep_states: np.ndarray
    u_actions: np.ndarray
    v_actions: np.ndarray
    coins: np.ndarray
    who_second: np.ndarray
    noise: np.ndarray
    payoff: float


@dataclass(frozen=True)
class SimulationResult:
    """Monte Carlo estimate of the expected terminal payoff."""

    mean: float
    std_error: float
    paths: int
    payoffs: np.ndarray
    records: tuple[PathRecord, ...] = field(default=())


def simulate(
    spec: ProblemSpec,
    partition: Partition,
    mode: DeterministicMode | RandomMode,
    strat_u,
    strat_v,
    paths: int,
    substeps: int,
    noise: NoiseSource,
    record: int = 0,
) -> SimulationResult:
    """Play the discretized game forward and average the terminal payoff.

    Per interval: snap states to the nearest node, settle who moves
    second (mark or coin; a coin is drawn every interval regardless of
    the priority value), ask each strategy once for its moves, let the
    second mover's counter map answer the leader's plain action, then
    freeze both actions and move the states.  Each strategy sees the
    interval index, the current nodes and the previous interval's nodes
    (``None`` at k = 0); an action index outside its side's action set
    raises :class:`EngineError`.  When both strategies are Markov tables
    the actions are settled once per node and coin face and read by each
    path, so a table is range-checked at every node, visited or not, with
    ``prev`` as ``None``.  A time-only priority is tabulated once over the
    interval starts, and each coin is compared with that interval's float.
    With frozen actions the state over an interval of length h is exactly
    a X + c b0 + s sigma dW with dW ~ N(0, h), the family's interval law
    (for the affine family an Ornstein-Uhlenbeck step), so each path's
    c b0 and s sigma are gathered once per interval from the action-pair
    table at X = 0 and the path moves once, on one noise block per
    interval.  ``substeps`` only refines the audit trail, and the payoffs
    do not depend on it.  A law that is not finite (e^{c1 h} overflows)
    raises :class:`EngineError` naming the interval.  The first ``record``
    paths keep a full audit trail (:class:`PathRecord`), which never
    changes the payoffs.
    """
    return _play(spec, partition, mode, [(strat_u, strat_v)], paths, substeps, noise, record)[0]


class _Trail:
    """Audit buffers for the first ``record`` paths of one pair."""

    def __init__(self, n: int, substeps: int, record: int, d_prime: int, x0: np.ndarray):
        self.record = record
        self.sub = np.empty((n * substeps + 1, record))
        self.sub[0] = x0[:record]
        self.u = np.empty((n, record), dtype=int)
        self.v = np.empty((n, record), dtype=int)
        self.coins = np.full((n, record), np.nan)
        self.second = np.empty((n, record), dtype=bool)
        self.noise = np.empty((n, substeps, record, d_prime))

    def bridge(self, k: int, parts: np.ndarray, a: float, cb: np.ndarray, sig: np.ndarray,
               x: np.ndarray) -> None:
        """Record interval k of a lane, on the bridge ``parts`` of its block.

        ``cb``, ``sig`` and ``x`` are the recorded paths' c b0, s sigma and
        states after the move, ``a`` the law's state factor.  From the
        interval's first point X the inner points step by
        ((a - 1) X + c b0) / S and s sigma part_s; the last point is x.
        """
        substeps = parts.shape[0]
        self.noise[k] = parts
        at = k * substeps
        if a != 1.0:
            cb = cb + (a - 1.0) * self.sub[at]
        cb_sub = cb / substeps
        for s in range(1, substeps):
            self.sub[at + s] = self.sub[at + s - 1] + cb_sub + np.sum(sig * parts[s - 1], axis=1)
        self.sub[at + substeps] = x

    def paths(self, times: np.ndarray, substeps: int, payoffs: np.ndarray):
        return tuple(
            PathRecord(
                times=times.copy(),
                states=self.sub[::substeps, i].copy(),
                substep_states=self.sub[:, i].copy(),
                u_actions=self.u[:, i].copy(),
                v_actions=self.v[:, i].copy(),
                coins=self.coins[:, i].copy(),
                who_second=self.second[:, i].copy(),
                noise=self.noise[:, :, i, :].copy(),
                payoff=float(payoffs[i]),
            )
            for i in range(self.record)
        )


def _select(heads: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.where(heads, a, b)`` for integer arrays, as b + heads * (a - b), in intp.

    Exact for integers; on a random heads vector it runs several times
    faster than ``np.where``, whose per-element branch mispredicts.
    """
    out = np.subtract(a, b, dtype=np.intp)
    out *= heads
    out += b
    return out


def _play(
    spec: ProblemSpec,
    partition: Partition,
    mode: DeterministicMode | RandomMode,
    pairs,
    paths: int,
    substeps: int,
    noise: NoiseSource,
    record: int,
) -> list[SimulationResult]:
    """Advance several (strat_u, strat_v) pairs together on shared draws.

    Every lane moves once per interval by the family's interval law
    X' = a X + c b0 + s sigma dW.  Each interval draws one coin vector and
    one (paths, noise_dim) block, and every pair moves on those same draws:
    common random numbers, so each pair's result is bitwise what it gets
    when played alone on sources with the same seeds.  The loop is
    lane-major within an interval: each lane is resolved and moves before
    the next lane is resolved, so one lane's frozen coefficients are live
    at a time however many lanes a pass holds.  The rule is a priority per
    interval: a mark is 1 or 0 and sets heads on every path with no coin
    drawn, a time-only p is compared with that interval's coins, and both
    settle one heads vector for all pairs; a state-dependent p is read at
    each pair's own states.  A lane is frozen per interval as (c b0,
    s sigma) gathered by the flat pair index iu * kv + iv from the
    action-pair table at X = 0, scaled once per interval by the law.

    Each strategy makes one ``moves`` call per lane and interval, whose
    counter map answers the other side once and is dropped before the
    move.  When both strategies of a lane are Markov tables, the
    interval's actions depend only on the node and the coin, so they are
    resolved and frozen once on a key axis of 2 * nodes entries (node j on
    tails is key j, on heads key nodes + j) and each path takes its lane by
    its key heads * nodes + node, added in place to its node index; this
    also range-checks every node's actions, not only the visited ones.
    The keyed lanes of one heads vector (marks or a time-only p) and one
    node count share that interval's coin-face offset heads * nodes.
    Each side's range check is one max over the uint64 view of its
    actions, where a negative index wraps above the range.
    Other strategies may read ``prev`` and are resolved per path.  With
    one noise column sigma is gathered from a 1-D column.  Each move
    updates the states in place, as x *= a (skipped when a = 1), x += c b0
    and then x += s sigma dW, so a state-free family moves bitwise by
    x + b h + sigma dW.  The audit trail splits the block by the noise
    source's bridge, once for all lanes, on the recorded paths alone.
    """
    if spec.dim != 1:
        raise EngineError("the simulator handles state dimension 1")
    if paths < 1 or substeps < 1:
        raise EngineError("need at least one path and one sub-step")
    if not 0 <= record <= paths:
        raise EngineError("record count must lie in [0, paths]")
    for strat_u, strat_v in pairs:
        grid = strat_u.grid
        if strat_v.grid is not grid and (
            strat_v.grid.lower != grid.lower
            or strat_v.grid.upper != grid.upper
            or strat_v.grid.nodes != grid.nodes
        ):
            raise EngineError("both strategies must share one lookup grid")
    # one priority per interval, or None for p read at each path's state;
    # marks are priorities of 0 or 1 and toss no coin
    p_steps = coin_source = None
    if isinstance(mode, DeterministicMode):
        _check_marks(spec, partition, mode.marks)
        p_steps = mode.marks.marks
    elif isinstance(mode, RandomMode):
        coin_source = mode.coins
        if spec.priority.time_only:
            p_steps = spec.priority.time_values(partition.times[:-1]).tolist()
    else:
        raise EngineError("mode must be DeterministicMode or RandomMode")

    n = partition.intervals
    d_prime = spec.noise_dim
    ku, kv = spec.actions_u.size, spec.actions_v.size
    # the families ignore t, and the law reads them at X = 0: one row per
    # action pair, laid out iu * kv + iv
    b_tab, sig_tab = spec.coefficient_table(float(partition.times[0]), np.zeros((1, spec.dim)))
    b_pairs = b_tab.reshape(ku * kv)
    sig_pairs = sig_tab.reshape(ku * kv, d_prime)
    if d_prime == 1:
        # one noise column: gather sigma from a 1-D column, not by rows
        sig_pairs = sig_pairs[:, 0].copy()
    lanes = range(len(pairs))
    # a Markov pair's key axis, as the (nodes, prev, heads) its lane resolves
    # on; None for a lane resolved per path
    key_axes = [
        (np.tile(np.arange(su.grid.nodes), 2), None, np.arange(2 * su.grid.nodes) >= su.grid.nodes)
        if isinstance(su, _MarkovTable) and isinstance(sv, _MarkovTable) else None
        for su, sv in pairs
    ]
    # every lane's states are rows of one block, allocated and freed as one
    xs = list(np.full((len(pairs), paths), spec.start_state[0], dtype=float))
    prevs = [None for _ in lanes]
    trails = [_Trail(n, substeps, record, d_prime, x) for x in xs] if record else None
    sdw = np.empty(paths)

    for k in range(n):
        h = float(partition.steps[k])
        a, c, s = spec.coefficients.interval_law(h)
        if not np.isfinite((a, c, s)).all():
            raise EngineError(
                f"interval {k}: the one-interval law (a, c, s) = ({a}, {c}, {s}) is not finite"
            )
        b_law, sig_law = b_pairs * c, sig_pairs * s
        if coin_source is None:
            heads = np.full(paths, p_steps[k] == 1)
            coins = None
        else:
            coins = coin_source.uniforms(paths)
            if p_steps is not None:
                heads = coins < p_steps[k]
        dW = noise.increments(paths, d_prime, h)
        parts = noise.bridge(dW[:record], substeps, h) if record else None
        faces = {}  # heads * nodes by node count, shared by keyed lanes while heads is
        for i, (strat_u, strat_v) in enumerate(pairs):
            prev = prevs[i]  # read first, so no older node array outlives this one
            x = xs[i]
            nodes = strat_u.grid.nearest_index(x)
            if p_steps is None:
                heads = coins < spec.priority_values(float(partition.times[k]), x[:, None])
                faces.clear()
            keyed = key_axes[i] is not None
            at, at_prev, at_heads = key_axes[i] if keyed else (nodes, prev, heads)
            u_plain, u_counter = strat_u.moves(k, at, at_prev)
            v_plain, v_counter = strat_v.moves(k, at, at_prev)
            v_resp = v_counter(u_plain)
            u_resp = u_counter(v_plain)
            del u_counter, v_counter  # a counter map may hold a hash per path
            iu = _select(at_heads, u_plain, u_resp)
            iv = _select(at_heads, v_resp, v_plain)
            # a flat pair index would alias an out-of-range action into another
            # pair; a negative index wraps above the range in the uint64 view
            if iu.view(np.uint64).max() >= ku:
                raise EngineError(f"u played an action index outside [0, {ku})")
            if iv.view(np.uint64).max() >= kv:
                raise EngineError(f"v played an action index outside [0, {kv})")
            pair = iu * kv
            pair += iv
            cb, sig = b_law.take(pair), sig_law.take(pair, axis=0)
            if keyed:
                # each path reads the key of its coin face and node
                n_nodes = strat_u.grid.nodes
                if n_nodes not in faces:
                    faces[n_nodes] = heads * n_nodes
                key = nodes
                key += faces[n_nodes]
                cb, sig = cb.take(key), sig.take(key, axis=0)
            prevs[i] = None if keyed else nodes
            if d_prime == 1:
                # np.sum adds from the identity 0.0, which turns a -0.0
                # product into +0.0; the column plus 0.0 keeps those bits
                np.multiply(sig, dW[:, 0], out=sdw)
                sdw += 0.0
            else:
                np.sum(sig * dW, axis=1, out=sdw)
            if a != 1.0:
                x *= a
            x += cb
            x += sdw
            if record:
                trail = trails[i]
                rows = key[:record] if keyed else slice(record)
                trail.u[k] = iu[rows]
                trail.v[k] = iv[rows]
                if coins is not None:
                    trail.coins[k] = coins[:record]
                trail.second[k] = heads[:record]
                trail.bridge(k, parts, a, cb[:record], sig[:record].reshape(record, d_prime),
                             x[:record])
            del cb, sig  # this lane's frozen coefficients go before the next lane's

    results = []
    for i in lanes:
        payoffs = spec.payoff_values(xs[i][:, None])
        mean = float(payoffs.mean())
        se = float(payoffs.std(ddof=1) / np.sqrt(paths)) if paths > 1 else float("inf")
        records = trails[i].paths(partition.times, substeps, payoffs) if record else ()
        results.append(SimulationResult(
            mean=mean, std_error=se, paths=paths, payoffs=payoffs, records=records
        ))
    return results


# --- exploitability ------------------------------------------------------------------

# Path-states one lockstep pass of the roster holds: 26 pairs at 20k paths, so
# a roster of up to 26 plays in one pass and each draw is made once.  It bounds
# a pass's memory for larger rosters; results do not depend on it.
_PASS_STATES = 2**19


@dataclass(frozen=True)
class ChallengerResult:
    label: str
    mean: float
    std_error: float


@dataclass(frozen=True)
class ExploitabilityReport:
    """Payoffs a roster of challengers extracts against one frozen strategy.

    ``worst`` is the challenger most damaging to the frozen side: the
    minimum mean when u is frozen (v challengers push the payoff down),
    the maximum when v is frozen.
    """

    fixed_side: str
    results: tuple[ChallengerResult, ...]

    @property
    def worst(self) -> ChallengerResult:
        if self.fixed_side == "u":
            return min(self.results, key=lambda r: r.mean)
        return max(self.results, key=lambda r: r.mean)


def _roster(
    spec: ProblemSpec,
    partition: Partition,
    side: str,
    challengers: int,
    seed: int,
    tables: GameValueTables,
) -> list[tuple[str, Callable]]:
    """Labelled builders of ``side``'s challengers, the first its saddle strategy.

    A challenger is built when its pass is played.  A roster that fits one
    pass holds every challenger's tables at once, which compact tables keep
    small; a larger roster holds only its current pass's.
    """
    grid = tables.grid
    n_own = spec.actions_v.size if side == "v" else spec.actions_u.size
    n_opp = spec.actions_u.size if side == "v" else spec.actions_v.size
    dp_opp = tables.strategy_v if side == "v" else tables.strategy_u
    feedback = HashFeedbackStrategyV if side == "v" else HashFeedbackStrategyU
    n_rest = challengers - 1
    n_perturbed = n_rest // 3
    n_feedback = n_rest // 3
    n_random = n_rest - n_perturbed - n_feedback
    roster = [("dp_best_response", lambda: dp_opp)]
    for i in range(n_perturbed):
        roster.append(
            (f"perturbed_{i}", partial(perturbed_strategy, dp_opp, 0.15, seed * 1000 + i, n_own))
        )
    for i in range(n_feedback):
        roster.append((f"feedback_{i}", partial(feedback, grid, n_own, seed * 2000 + i)))
    for i in range(n_random):
        roster.append(
            (
                f"random_markov_{i}",
                partial(random_markov_strategy, side, grid, partition, n_own, n_opp,
                        seed * 3000 + i),
            )
        )
    return roster


def exploitability(
    spec: ProblemSpec,
    partition: Partition,
    mode_kind: str,
    fixed_side: str,
    strategy,
    challengers: int,
    seed: int,
    *,
    tables: GameValueTables,
    marks: MarkSequence | None = None,
    paths: int = 20000,
    substeps: int = 4,
) -> ExploitabilityReport:
    """Measure how far seeded challengers move the payoff against a frozen strategy.

    The roster: the backward-induction saddle strategy of the opposing
    side, locally perturbed copies of it, uniformly random Markov tables,
    and hash feedback strategies, all seeded from ``seed``.  Every
    challenger plays the same number of paths on common random numbers:
    the coins of ``CoinSource(seed * 7000)`` and the noise of
    ``NoiseSource(seed * 9000)``.  The roster is played in one lockstep
    pass whose pairs share each draw, so each interval's coins and noise
    block are drawn once for the whole roster; a roster too
    large for one pass is split into passes that each replay those seeds.
    Either way each challenger's mean and standard error are bitwise what a
    solo :func:`simulate` on the same seeds gives.
    """
    if fixed_side not in ("u", "v"):
        raise EngineError("fixed_side must be 'u' or 'v'")
    if mode_kind not in ("random", "deterministic"):
        raise EngineError("mode_kind must be 'random' or 'deterministic'")
    if mode_kind == "deterministic" and marks is None:
        raise EngineError("deterministic mode needs the mark sequence")
    if challengers < 1:
        raise EngineError("need at least one challenger")
    _check_seed(seed)  # before the roster scales it
    roster = _roster(spec, partition, "v" if fixed_side == "u" else "u", challengers, seed, tables)
    per_pass = max(1, _PASS_STATES // max(paths, 1))
    results = []
    for lo in range(0, len(roster), per_pass):
        batch = roster[lo:lo + per_pass]
        # every pass replays the same seeds, so results ignore the pass size
        if mode_kind == "random":
            mode = RandomMode(CoinSource(seed * 7000))
        else:
            mode = DeterministicMode(marks)
        pairs = [
            (strategy, build()) if fixed_side == "u" else (build(), strategy)
            for _, build in batch
        ]
        plays = _play(spec, partition, mode, pairs, paths, substeps, NoiseSource(seed * 9000), 0)
        results += [
            ChallengerResult(label=label, mean=res.mean, std_error=res.std_error)
            for (label, _), res in zip(batch, plays)
        ]
        del pairs, plays  # release this pass's tables before the next is built
    return ExploitabilityReport(fixed_side=fixed_side, results=tuple(results))
