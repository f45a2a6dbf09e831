"""Problem descriptions for finite-action stochastic differential games.

A problem bundles controlled dynamics dX = b(t, X, u, v) dt + sigma(t, X, u, v) dW,
a terminal payoff g(X_T) that u maximizes and v minimizes, finite action
grids for both players, and a priority function p(t, x) in [0, 1] giving
the probability that v moves second (sees u) in each short round.

Coefficients, payoffs and priorities come from small named families so
that a problem is fully determined by (family name, parameter vector)
triples; that is what makes text configs and bitwise replay possible.
Every coefficient family declares a Lipschitz constant in x and a linear
growth constant, and ``validate_assumptions`` cross-checks the declared
constants against sampled evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProblemError",
    "ActionSet",
    "CoefficientSpec",
    "PayoffSpec",
    "PrioritySpec",
    "ProblemSpec",
    "AssumptionReport",
    "validate_assumptions",
    "coefficient_family_names",
    "payoff_family_names",
    "priority_family_names",
]


class ProblemError(ValueError):
    """Invalid problem data: bad family, parameters, actions, or domain."""


def _params_array(params, count: int, what: str) -> np.ndarray:
    arr = np.asarray(params, dtype=float).ravel()
    if arr.size != count:
        raise ProblemError(f"{what} expects {count} parameters, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ProblemError(f"{what} parameters must be finite")
    return arr


@dataclass(frozen=True)
class ActionSet:
    """Finite ordered list of distinct action vectors.

    Scalar actions are stored as length-1 vectors.  Order is meaningful:
    strategies refer to actions by index.
    """

    points: tuple[tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not self.points:
            raise ProblemError("action set must be non-empty")
        pts = []
        width = None
        for p in self.points:
            row = tuple(float(c) for c in (np.atleast_1d(np.asarray(p, dtype=float))))
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ProblemError("all actions must have the same dimension")
            if not all(np.isfinite(row)):
                raise ProblemError("action coordinates must be finite")
            pts.append(row)
        if len(set(pts)) != len(pts):
            raise ProblemError("action vectors must be distinct")
        object.__setattr__(self, "points", tuple(pts))

    @classmethod
    def from_values(cls, values) -> "ActionSet":
        return cls(tuple((float(v),) if np.isscalar(v) else tuple(v) for v in values))

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    @property
    def array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


# --- coefficient families ---------------------------------------------------
#
# Batch convention: X has shape (n, d), U shape (n, ku), V shape (n, kv);
# drift returns (n, d), diffusion returns (n, d, d_prime).  Rows are
# independent samples; broadcasting a single action over n rows is the
# caller's job (np.broadcast_to, no copy).
#
# Contract: drift and diffusion ignore t.  The PDE march, its CFL scan and
# the lattice build one action-pair table and use it at every time, so a
# family whose coefficients moved with t would be solved wrongly;
# test_every_coefficient_family_ignores_time checks every registered family.
#
# Each family also declares ``interval_law(params, d, d_prime, h)``, the
# (a, c, s) of its exact move over an interval of length h with frozen
# actions, X' = a X + c b0 + s sigma dW with dW ~ N(0, h) and b0, sigma at
# X = 0 (Glasserman, 2004, section 3.3).  Forward play moves by it, and
# test_every_coefficient_family_interval_law_is_honest checks every family.


class _ConstantCoefficients:
    """b and sigma constant in (t, x, u, v): params = [b (d), sigma rows (d*d')]"""

    name = "constant"

    @staticmethod
    def param_count(d: int, d_prime: int) -> int:
        return d + d * d_prime

    @staticmethod
    def interval_law(params, d, d_prime, h):
        return 1.0, h, 1.0

    @staticmethod
    def split(params: np.ndarray, d: int, d_prime: int):
        return params[:d], params[d:].reshape(d, d_prime)

    @classmethod
    def drift(cls, params, d, d_prime, t, X, U, V):
        b, _ = cls.split(params, d, d_prime)
        return np.broadcast_to(b, (X.shape[0], d)).copy()

    @classmethod
    def diffusion(cls, params, d, d_prime, t, X, U, V):
        _, sig = cls.split(params, d, d_prime)
        return np.broadcast_to(sig, (X.shape[0], d, d_prime)).copy()

    @classmethod
    def lipschitz_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        return 0.0

    @classmethod
    def growth_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        b, sig = cls.split(params, d, d_prime)
        return float(np.linalg.norm(b) + np.linalg.norm(sig))


class _AffineCoefficients:
    """Diagonal-affine drift b_i = c0_i + c1_i x_i, constant sigma.

    params = [c0 (d), c1 (d), sigma rows (d*d')].
    """

    name = "affine"

    @staticmethod
    def param_count(d: int, d_prime: int) -> int:
        return 2 * d + d * d_prime

    @staticmethod
    def split(params: np.ndarray, d: int, d_prime: int):
        return params[:d], params[d : 2 * d], params[2 * d :].reshape(d, d_prime)

    @staticmethod
    def interval_law(params, d, d_prime, h):
        """The Ornstein-Uhlenbeck step for d = 1; an overflow gives inf, which callers reject."""
        if d != 1:
            raise ProblemError("the affine interval law is for state dimension 1")
        c1 = float(params[1])
        ch = c1 * h
        if ch == 0.0:
            return 1.0, h, 1.0
        with np.errstate(over="ignore"):
            a, em1, em2 = np.exp(ch), np.expm1(ch), np.expm1(2.0 * ch)
        return float(a), float(em1 / c1), float(np.sqrt(em2 / (2.0 * ch)))

    @classmethod
    def drift(cls, params, d, d_prime, t, X, U, V):
        c0, c1, _ = cls.split(params, d, d_prime)
        return c0[None, :] + c1[None, :] * X

    @classmethod
    def diffusion(cls, params, d, d_prime, t, X, U, V):
        _, _, sig = cls.split(params, d, d_prime)
        return np.broadcast_to(sig, (X.shape[0], d, d_prime)).copy()

    @classmethod
    def lipschitz_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        _, c1, _ = cls.split(params, d, d_prime)
        return float(np.max(np.abs(c1), initial=0.0))

    @classmethod
    def growth_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        c0, c1, sig = cls.split(params, d, d_prime)
        return float(
            max(np.linalg.norm(c0) + np.linalg.norm(sig), np.max(np.abs(c1), initial=0.0))
        )


class _BilinearCoefficients:
    """Drift kappa * <u, v> in every coordinate, diagonal constant sigma.

    params = [kappa, s0]; sigma has s0 on its main diagonal.  Requires the
    two action sets to share a dimension so <u, v> is defined.
    """

    name = "bilinear"

    @staticmethod
    def param_count(d: int, d_prime: int) -> int:
        return 2

    @staticmethod
    def interval_law(params, d, d_prime, h):
        return 1.0, h, 1.0

    @classmethod
    def drift(cls, params, d, d_prime, t, X, U, V):
        kappa = params[0]
        if U.shape[-1] != V.shape[-1]:
            raise ProblemError("bilinear drift needs equal action dimensions")
        prod = np.sum(U * V, axis=-1)
        return kappa * prod[:, None] * np.ones((1, d))

    @classmethod
    def diffusion(cls, params, d, d_prime, t, X, U, V):
        sig = np.zeros((d, d_prime))
        np.fill_diagonal(sig, params[1])
        return np.broadcast_to(sig, (X.shape[0], d, d_prime)).copy()

    @classmethod
    def lipschitz_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        return 0.0

    @classmethod
    def growth_bound(cls, params, d, d_prime, u_set, v_set) -> float:
        prods = np.abs(u_set.array @ v_set.array.T)
        kappa, s0 = params
        return float(
            abs(kappa) * prods.max() * np.sqrt(d) + abs(s0) * np.sqrt(min(d, d_prime))
        )


_COEFFICIENT_FAMILIES = {
    f.name: f for f in (_ConstantCoefficients, _AffineCoefficients, _BilinearCoefficients)
}


def coefficient_family_names() -> tuple[str, ...]:
    return tuple(sorted(_COEFFICIENT_FAMILIES))


@dataclass(frozen=True)
class CoefficientSpec:
    """Named coefficient family instance: dynamics of the controlled state."""

    family: str
    params: tuple[float, ...]
    dim: int
    noise_dim: int

    def __post_init__(self) -> None:
        if self.family not in _COEFFICIENT_FAMILIES:
            raise ProblemError(
                f"unknown coefficient family {self.family!r}; "
                f"known: {coefficient_family_names()}"
            )
        if self.dim < 1 or self.noise_dim < 1:
            raise ProblemError("state and noise dimensions must be positive")
        fam = _COEFFICIENT_FAMILIES[self.family]
        arr = _params_array(
            self.params, fam.param_count(self.dim, self.noise_dim),
            f"coefficient family {self.family!r}",
        )
        object.__setattr__(self, "params", tuple(arr))
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "noise_dim", int(self.noise_dim))

    @property
    def _fam(self):
        return _COEFFICIENT_FAMILIES[self.family]

    def interval_law(self, h: float) -> tuple[float, float, float]:
        """(a, c, s) of the frozen-action move X' = a X + c b0 + s sigma dW, dW ~ N(0, h).

        b0 and sigma are taken at X = 0; a family that ignores X has (1, h, 1).
        """
        return self._fam.interval_law(np.asarray(self.params), self.dim, self.noise_dim, h)

    def drift(self, t: float, X: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        return self._fam.drift(
            np.asarray(self.params), self.dim, self.noise_dim, t, X, U, V
        )

    def diffusion(self, t: float, X: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
        return self._fam.diffusion(
            np.asarray(self.params), self.dim, self.noise_dim, t, X, U, V
        )

    def lipschitz_bound(self, u_set: ActionSet, v_set: ActionSet) -> float:
        return self._fam.lipschitz_bound(
            np.asarray(self.params), self.dim, self.noise_dim, u_set, v_set
        )

    def growth_bound(self, u_set: ActionSet, v_set: ActionSet) -> float:
        return self._fam.growth_bound(
            np.asarray(self.params), self.dim, self.noise_dim, u_set, v_set
        )


# --- payoff families ---------------------------------------------------------


class _CosinePayoff:
    """g(x) = amplitude * cos(omega * sum_i x_i); params = [amplitude, omega]."""

    name = "cosine"

    @staticmethod
    def param_count(d: int) -> int:
        return 2

    @staticmethod
    def value(params, d, X):
        return params[0] * np.cos(params[1] * X.sum(axis=-1))

    @staticmethod
    def bound(params, d) -> float:
        return float(abs(params[0]))


class _ClippedQuadraticPayoff:
    """g(x) = min(|x|^2, cap); params = [cap >= 0].

    The clip keeps g bounded so the standing assumptions hold; choose the
    cap at least the squared domain radius and the clip never binds on
    the grid.
    """

    name = "clipped_quadratic"

    @staticmethod
    def param_count(d: int) -> int:
        return 1

    @staticmethod
    def value(params, d, X):
        if params[0] < 0:
            raise ProblemError("clipped_quadratic cap must be non-negative")
        return np.minimum(np.sum(X * X, axis=-1), params[0])

    @staticmethod
    def bound(params, d) -> float:
        return float(params[0])


class _ConstantPayoff:
    """g(x) = c; params = [c]."""

    name = "constant"

    @staticmethod
    def param_count(d: int) -> int:
        return 1

    @staticmethod
    def value(params, d, X):
        return np.full(X.shape[:-1], params[0], dtype=float)

    @staticmethod
    def bound(params, d) -> float:
        return float(abs(params[0]))


_PAYOFF_FAMILIES = {
    f.name: f for f in (_CosinePayoff, _ClippedQuadraticPayoff, _ConstantPayoff)
}


def payoff_family_names() -> tuple[str, ...]:
    return tuple(sorted(_PAYOFF_FAMILIES))


@dataclass(frozen=True)
class PayoffSpec:
    """Named terminal payoff g; continuous and bounded by ``bound``."""

    family: str
    params: tuple[float, ...]
    dim: int

    def __post_init__(self) -> None:
        if self.family not in _PAYOFF_FAMILIES:
            raise ProblemError(
                f"unknown payoff family {self.family!r}; known: {payoff_family_names()}"
            )
        fam = _PAYOFF_FAMILIES[self.family]
        arr = _params_array(
            self.params, fam.param_count(self.dim), f"payoff family {self.family!r}"
        )
        object.__setattr__(self, "params", tuple(arr))
        object.__setattr__(self, "dim", int(self.dim))

    def value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return _PAYOFF_FAMILIES[self.family].value(np.asarray(self.params), self.dim, X)

    @property
    def bound(self) -> float:
        return _PAYOFF_FAMILIES[self.family].bound(np.asarray(self.params), self.dim)


# --- priority families --------------------------------------------------------
#
# Batch convention: value(params, d, t, X) takes X of shape (n, d) and
# returns (n,).  t is a float, or an array of n times, one per row of X:
# each family broadcasts an array t elementwise (np.full, or
# w0 + wt * t + X @ wx).  So PrioritySpec.time_values tabulates a time-only
# p over a time grid in one call on X = 0, bitwise equal to value(t_i, X)
# at every node (test_every_priority_family_time_values_match_scalar checks
# every registered family), and validate_assumptions reads all its samples
# in one call.


class _ConstantPriority:
    """p(t, x) = p0; params = [p0 in [0, 1]]."""

    name = "constant"
    time_only = True

    @staticmethod
    def param_count(d: int) -> int:
        return 1

    @staticmethod
    def value(params, d, t, X):
        return np.full(X.shape[:-1], params[0], dtype=float)


class _LinearTimePriority:
    """p(t, x) = a + b * t; params = [a, b]; range-checked at evaluation."""

    name = "linear_time"
    time_only = True

    @staticmethod
    def param_count(d: int) -> int:
        return 2

    @staticmethod
    def value(params, d, t, X):
        return np.full(X.shape[:-1], params[0] + params[1] * t, dtype=float)


class _LogisticPriority:
    """p(t, x) = 1 / (1 + exp(-(w0 + wt*t + <wx, x>))); params = [w0, wt, wx (d)].

    Values always lie strictly inside (0, 1).  Time-only when wx == 0.
    """

    name = "logistic"
    time_only = False

    @staticmethod
    def param_count(d: int) -> int:
        return 2 + d

    @staticmethod
    def value(params, d, t, X):
        z = params[0] + params[1] * t + X @ params[2:]
        # clip the exponent, not the probability: keeps values in (0, 1)
        return 1.0 / (1.0 + np.exp(-np.clip(z, -700.0, 700.0)))


_PRIORITY_FAMILIES = {
    f.name: f for f in (_ConstantPriority, _LinearTimePriority, _LogisticPriority)
}


def priority_family_names() -> tuple[str, ...]:
    return tuple(sorted(_PRIORITY_FAMILIES))


@dataclass(frozen=True)
class PrioritySpec:
    """Named priority function p(t, x): probability that v moves second."""

    family: str
    params: tuple[float, ...]
    dim: int

    def __post_init__(self) -> None:
        if self.family not in _PRIORITY_FAMILIES:
            raise ProblemError(
                f"unknown priority family {self.family!r}; known: {priority_family_names()}"
            )
        fam = _PRIORITY_FAMILIES[self.family]
        arr = _params_array(
            self.params, fam.param_count(self.dim), f"priority family {self.family!r}"
        )
        object.__setattr__(self, "params", tuple(arr))
        object.__setattr__(self, "dim", int(self.dim))
        if self.family == "constant" and not 0.0 <= arr[0] <= 1.0:
            raise ProblemError(f"constant priority must lie in [0, 1], got {arr[0]}")

    @property
    def time_only(self) -> bool:
        fam = _PRIORITY_FAMILIES[self.family]
        if self.family == "logistic":
            return bool(np.all(np.asarray(self.params)[2:] == 0.0))
        return fam.time_only

    def _family_values(self, t, X: np.ndarray) -> np.ndarray:
        """The family's values under the batch convention, not range-checked."""
        return _PRIORITY_FAMILIES[self.family].value(np.asarray(self.params), self.dim, t, X)

    def value(self, t: float, X: np.ndarray) -> np.ndarray:
        out = self._family_values(t, np.asarray(X, dtype=float))
        if out.size and (out.min() < 0.0 or out.max() > 1.0):
            raise ProblemError(
                f"priority family {self.family!r} left [0, 1] at t={t}"
            )
        return out

    def time_values(self, times) -> np.ndarray:
        """p at each of ``times`` for a time-only priority, in one family call.

        Entry i is bitwise what :meth:`value` gives at times[i] on any state
        (the batch convention of the priority families).  The range check is
        that of :meth:`value`: a value outside [0, 1] raises
        :class:`ProblemError` naming the first such time in the order given,
        so a solver that passes its times in marching order reports the t
        its march would have stopped at.
        """
        if not self.time_only:
            raise ProblemError("state required: priority is state-dependent")
        t = np.asarray(times, dtype=float)
        out = self._family_values(t, np.zeros((t.size, self.dim)))
        bad = (out < 0.0) | (out > 1.0)
        if bad.any():
            raise ProblemError(
                f"priority family {self.family!r} left [0, 1] at t={float(t[bad.argmax()])}"
            )
        return out


# --- the assembled problem -----------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Complete game description: dynamics, payoff, priority, actions, window.

    ``horizon`` is the terminal time T, ``start_time`` the initial time s
    with 0 <= s <= T, ``start_state`` the initial state x in R^d.
    """

    coefficients: CoefficientSpec
    payoff: PayoffSpec
    priority: PrioritySpec
    actions_u: ActionSet
    actions_v: ActionSet
    horizon: float
    start_time: float = 0.0
    start_state: tuple[float, ...] = field(default=(0.0,))

    def __post_init__(self) -> None:
        if not (self.horizon > 0.0 and np.isfinite(self.horizon)):
            raise ProblemError("horizon T must be positive and finite")
        if not 0.0 <= self.start_time <= self.horizon:
            raise ProblemError("start time must satisfy 0 <= s <= T")
        d = self.coefficients.dim
        if self.payoff.dim != d or self.priority.dim != d:
            raise ProblemError("payoff/priority dimension must match the state dimension")
        x0 = np.atleast_1d(np.asarray(self.start_state, dtype=float))
        if x0.shape != (d,) or not np.all(np.isfinite(x0)):
            raise ProblemError(f"start state must be a finite vector of length {d}")
        object.__setattr__(self, "start_state", tuple(float(c) for c in x0))
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "start_time", float(self.start_time))
        if self.coefficients.family == "bilinear" and (
            self.actions_u.dim != self.actions_v.dim
        ):
            raise ProblemError("bilinear coefficients need equal action dimensions")

    @property
    def dim(self) -> int:
        return self.coefficients.dim

    @property
    def noise_dim(self) -> int:
        return self.coefficients.noise_dim

    # batch evaluation used by the solvers; rows are independent samples
    def drift(self, t, X, U, V) -> np.ndarray:
        return self.coefficients.drift(t, X, U, V)

    def diffusion(self, t, X, U, V) -> np.ndarray:
        return self.coefficients.diffusion(t, X, U, V)

    def coefficient_table(self, t: float, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Drift and diffusion at time t for every action pair and state.

        X has shape (n, d).  Returns b with shape (ku, kv, n, d) and sigma
        with shape (ku, kv, n, d, d'); entry [a, c, i] belongs to the pair
        (u_a, v_c) at state X[i].  The families evaluate rows independently,
        so one batched call gives each entry bitwise as a call for that pair
        alone would.  Callers reduce sigma themselves: np.sum and np.einsum
        round sigma sigma^T differently once d' >= 3.
        """
        X = np.asarray(X, dtype=float)
        au, av = self.actions_u.array, self.actions_v.array
        shape = (au.shape[0], av.shape[0], X.shape[0])

        def rows(arr: np.ndarray) -> np.ndarray:
            return np.broadcast_to(arr, shape + arr.shape[-1:]).reshape(-1, arr.shape[-1])

        XX, U, V = rows(X), rows(au[:, None, None, :]), rows(av[None, :, None, :])
        b = self.drift(t, XX, U, V).reshape(shape + (self.dim,))
        sig = self.diffusion(t, XX, U, V).reshape(shape + (self.dim, self.noise_dim))
        return b, sig

    def payoff_values(self, X) -> np.ndarray:
        return self.payoff.value(X)

    def priority_values(self, t, X) -> np.ndarray:
        return self.priority.value(t, X)


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled cross-check of the declared regularity constants."""

    lipschitz_declared: float
    lipschitz_observed: float
    growth_declared: float
    growth_observed: float
    payoff_bound_declared: float
    payoff_observed: float
    priority_min: float
    priority_max: float
    samples: int
    box_radius: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _row_norms(A: np.ndarray) -> np.ndarray:
    """Euclidean (Frobenius) norm of each A[i], rounded as np.linalg.norm(A[i]) is.

    np.linalg.norm of one array is a dot product of its raveled entries;
    matmul takes the same dot per row, where norm(A, axis=...) sums squares
    and can differ in the last bit.
    """
    rows = A.reshape(A.shape[0], 1, -1)
    return np.sqrt(rows @ rows.transpose(0, 2, 1))[:, 0, 0]


def validate_assumptions(
    spec: ProblemSpec,
    box_radius: float = 10.0,
    samples: int = 2000,
    seed: int = 0,
) -> AssumptionReport:
    """Sample (t, x, y, u, v) and compare observed constants to declared ones.

    Observed Lipschitz ratio uses |b(t,x)-b(t,y)| + |sigma(t,x)-sigma(t,y)|_F
    over |x - y|; observed growth uses (|b| + |sigma|_F) / (1 + |x|).  A
    tolerance of 1e-9 absorbs rounding in the comparisons.
    """
    rng = np.random.default_rng(seed)
    d = spec.dim
    n = int(samples)
    t = rng.uniform(0.0, spec.horizon, n)
    X = rng.uniform(-box_radius, box_radius, (n, d))
    Y = rng.uniform(-box_radius, box_radius, (n, d))
    U = spec.actions_u.array[rng.integers(0, spec.actions_u.size, n)]
    V = spec.actions_v.array[rng.integers(0, spec.actions_v.size, n)]

    # the coefficient families ignore t (see the batch convention), so one
    # call per point set serves every sampled time
    bx, by = spec.drift(t, X, U, V), spec.drift(t, Y, U, V)
    sx, sy = spec.diffusion(t, X, U, V), spec.diffusion(t, Y, U, V)
    gap = _row_norms(X - Y)
    far = gap > 1e-12
    spread = _row_norms(bx - by) + _row_norms(sx - sy)
    lip_obs = float(np.max(spread[far] / gap[far], initial=0.0))
    size = _row_norms(bx) + _row_norms(sx)
    growth_obs = float(np.max(size / (1.0 + _row_norms(X)), initial=0.0))

    payoff_obs = float(np.max(np.abs(spec.payoff_values(X))))
    # one call over all samples, each row at its own time (the batch
    # convention), and unchecked, so a p outside [0, 1] is reported below
    pvals = spec.priority._family_values(t, X)
    lip_decl = spec.coefficients.lipschitz_bound(spec.actions_u, spec.actions_v)
    growth_decl = spec.coefficients.growth_bound(spec.actions_u, spec.actions_v)
    bound_decl = spec.payoff.bound

    tol = 1e-9
    failures = []
    if lip_obs > lip_decl + tol:
        failures.append(
            f"observed Lipschitz ratio {lip_obs:.6g} exceeds declared {lip_decl:.6g}"
        )
    if growth_obs > growth_decl + tol:
        failures.append(
            f"observed growth ratio {growth_obs:.6g} exceeds declared {growth_decl:.6g}"
        )
    if payoff_obs > bound_decl + tol:
        failures.append(
            f"observed |g| {payoff_obs:.6g} exceeds declared bound {bound_decl:.6g}"
        )
    if pvals.min() < -tol or pvals.max() > 1.0 + tol:
        failures.append("priority left [0, 1]")

    return AssumptionReport(
        lipschitz_declared=float(lip_decl),
        lipschitz_observed=float(lip_obs),
        growth_declared=float(growth_decl),
        growth_observed=float(growth_obs),
        payoff_bound_declared=float(bound_decl),
        payoff_observed=payoff_obs,
        priority_min=float(pvals.min()),
        priority_max=float(pvals.max()),
        samples=n,
        box_radius=float(box_radius),
        failures=tuple(failures),
    )
