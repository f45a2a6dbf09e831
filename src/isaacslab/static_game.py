"""One-period matrix games with an information priority.

A finite payoff matrix f(u, v) is played between a maximizing row player u
and a minimizing column player v.  Three values matter:

* lower value  max_u min_v f   (v observes u's move and counters),
* upper value  min_v max_u f   (u observes v's move and counters),
* mixed value  p * lower + (1 - p) * upper  for a priority p in [0, 1],
  the expected outcome when a coin with P(heads) = p decides who moves
  second; heads means v sees u.

``local_values`` and ``local_saddle`` value a batch of games f[u, v, *batch]
at once; the Hamiltonians, the PDE march and the lattice DP go through them.

Because both players optimize sequentially, the prioritized game also has
an exact saddle representation over strategy pairs (plain action, counter
map): sup-inf and inf-sup coincide.  ``representation_residual`` certifies
this by honest enumeration of every counter map, feasible for action sets
of size at most four.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LocalGameMatrix",
    "StaticSaddle",
    "StaticGameError",
    "mix",
    "local_values",
    "local_saddle",
    "saddle",
    "representation_residual",
    "play_one_period",
]

MAX_ENUMERABLE_ACTIONS = 4


class StaticGameError(ValueError):
    """Malformed matrix, priority, or choice passed to a one-period game."""


def _check_prio(prio):
    """A scalar ``prio`` as a float, else as a float array, rejected unless in [0, 1]."""
    # NaN fails both comparisons; the initial values let an empty array pass
    if np.ndim(prio) == 0:
        p = float(prio)
        ok = 0.0 <= p <= 1.0
    else:
        p = np.asarray(prio, dtype=float)
        ok = p.min(initial=0.0) >= 0.0 and p.max(initial=1.0) <= 1.0
    if not ok:
        raise StaticGameError(f"priority must lie in [0, 1], got {prio}")
    return p


def mix(prio, lower, upper, out=None):
    """Priority-weighted combination with exact endpoints, for scalars or arrays.

    Where prio == 1.0 the result is ``lower`` itself and where prio == 0.0
    it is ``upper`` itself, bitwise, so degenerate priorities reproduce
    the one-sided games with no floating-point residue.  Arrays broadcast
    against each other; an all-scalar call returns a float.

    A scalar prio takes one branch for the whole of ``lower`` and
    ``upper``: it returns ``lower`` (p = 1) or ``upper`` (p = 0) as given,
    or p * lower + (1 - p) * upper, elementwise bitwise what an array prio
    of equal entries gives, without the two selection passes.

    With ``out``, an array that shares no memory with ``upper``, the
    result is written there and ``out`` is returned; a scalar p strictly
    inside (0, 1) forms p * lower there and adds (1 - p) * upper in place,
    the same sum with one temporary instead of three.
    """
    p = _check_prio(prio)
    if not isinstance(p, float):
        blend = np.where(p == 1.0, lower, np.where(p == 0.0, upper, p * lower + (1.0 - p) * upper))
    elif p == 1.0 or p == 0.0:
        blend = lower if p == 1.0 else upper
    elif out is None:
        blend = p * lower + (1.0 - p) * upper
    else:
        np.multiply(p, lower, out=out)
        out += (1.0 - p) * upper
        return out
    if out is not None:
        out[...] = blend
        return out
    return float(blend) if isinstance(p, float) and np.ndim(blend) == 0 else blend


@dataclass(frozen=True)
class LocalGameMatrix:
    """Payoff table f(u, v); u maximizes over rows, v minimizes over columns."""

    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2 or vals.size == 0:
            raise StaticGameError("payoff matrix must be 2-D and non-empty")
        if not np.all(np.isfinite(vals)):
            raise StaticGameError("payoff matrix entries must be finite")
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


def _as_matrix(f: LocalGameMatrix | np.ndarray) -> LocalGameMatrix:
    if isinstance(f, LocalGameMatrix):
        return f
    return LocalGameMatrix(np.asarray(f, dtype=float))


def _fold(op, a: np.ndarray) -> np.ndarray:
    """``op.reduce(a, axis=0)`` bitwise, one ufunc call per slice a[c], running result first.

    Each call runs over a whole slice where the reduction would step
    through the short action axis per output element.  A length-one axis
    returns the view a[0].
    """
    out = a[0]
    for c in range(1, a.shape[0]):
        out = op(out, a[c])
    return out


def _arg_fold(better, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Index of the best entry along the leading axis of ``a``, in ``out`` if given.

    ``better`` is np.greater (argmax) or np.less (argmin).  The comparison
    is strict and runs in index order, so a tie keeps the lowest index, as
    argmax and argmin do.  Unlike them it never picks a NaN.
    """
    k = a.shape[0]
    idx = np.empty(a.shape[1:], dtype=int) if out is None else out
    if k == 1:
        idx.fill(0)
        return idx
    # over the first two entries the comparison's 0/1 is the index
    better(a[1], a[0], out=idx)
    if k > 2:
        best = np.where(idx, a[1], a[0])
        for c in range(2, k):
            hit = better(a[c], best)
            np.copyto(idx, c, where=hit)
            np.copyto(best, a[c], where=hit)
    return idx


def local_values(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower max_u min_v and upper min_v max_u of a batch of games f[u, v, *batch].

    Bitwise the nested ``np.minimum.reduce``/``np.maximum.reduce`` over
    the two action axes; both results have the batch shape.
    """
    lower = _fold(np.maximum, _fold(np.minimum, f.swapaxes(0, 1)))
    return lower, _fold(np.minimum, _fold(np.maximum, f))


def local_saddle(f: np.ndarray, out=None) -> tuple[np.ndarray, ...]:
    """Values and saddle strategies of a batch of games f[u, v, *batch].

    Returns ``(lower, upper, u_plain, u_counter, v_plain, v_counter)``:
    the values of :func:`local_values`; u's best leading row (batch
    shape) and its counter map u_counter[v], the best row against column
    v (kv, *batch); v's best leading column and its counter map
    v_counter[u] (ku, *batch).  Ties break to the lowest index, as
    argmax and argmin do.  ``out``, four integer arrays of those shapes
    (views of a table's rows will do), receives the strategies, which are
    then returned in their place.
    """
    row_floor = _fold(np.minimum, f.swapaxes(0, 1))  # min over v, (ku, *batch)
    col_ceil = _fold(np.maximum, f)  # max over u, (kv, *batch)
    u_plain, u_counter, v_plain, v_counter = (None,) * 4 if out is None else out
    return (_fold(np.maximum, row_floor), _fold(np.minimum, col_ceil),
            _arg_fold(np.greater, row_floor, u_plain), _arg_fold(np.greater, f, u_counter),
            _arg_fold(np.less, col_ceil, v_plain),
            _arg_fold(np.less, f.swapaxes(0, 1), v_counter))


@dataclass(frozen=True)
class StaticSaddle:
    """Full saddle summary of a one-period prioritized game."""

    lower: float
    upper: float
    mixed: float
    prio: float
    u_star: int
    beta_star: np.ndarray
    v_star: int
    alpha_star: np.ndarray


def saddle(f: LocalGameMatrix | np.ndarray, prio: float) -> StaticSaddle:
    """Values and saddle choices of one game, ties broken low (see :func:`local_saddle`)."""
    lo, hi, u_star, alpha_star, v_star, beta_star = local_saddle(_as_matrix(f).values)
    lo, hi = float(lo), float(hi)
    return StaticSaddle(
        lower=lo,
        upper=hi,
        mixed=mix(prio, lo, hi),
        prio=float(_check_prio(prio)),
        u_star=int(u_star),
        beta_star=beta_star,
        v_star=int(v_star),
        alpha_star=alpha_star,
    )


def _all_maps(domain: int, codomain: int) -> np.ndarray:
    """Every map {0..domain-1} -> {0..codomain-1} as an array of rows."""
    grids = np.meshgrid(*[np.arange(codomain)] * domain, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def representation_residual(
    f: LocalGameMatrix | np.ndarray, prio: float
) -> tuple[float, float, float]:
    """Brute-force check of the saddle representation of the mixed value.

    Enumerates every strategy pair ((u, alpha), (v, beta)) where alpha and
    beta are arbitrary counter maps, evaluates
    p * f(u, beta(u)) + (1 - p) * f(alpha(v), v), and reduces to sup-inf
    and inf-sup.  Returns ``(supinf, infsup, residual)`` with residual the
    larger deviation of the two from the mixed value ``mix(prio, lower,
    upper)``.  Only defined for action sets of size at most four (the map
    count grows as n**m).
    """
    mat = _as_matrix(f)
    prio = float(_check_prio(prio))
    m, n = mat.shape
    if m > MAX_ENUMERABLE_ACTIONS or n > MAX_ENUMERABLE_ACTIONS:
        raise StaticGameError(
            f"enumeration supports at most {MAX_ENUMERABLE_ACTIONS} actions per side"
        )
    vals = mat.values
    betas = _all_maps(m, n)        # (B, m) candidate counter maps for v
    alphas = _all_maps(n, m)       # (A, n) candidate counter maps for u
    # term1[u, b] = f(u, beta_b(u)); term2[a, v] = f(alpha_a(v), v)
    term1 = vals[np.arange(m)[:, None], betas.T]          # (m, B)
    term2 = vals[alphas, np.arange(n)[None, :]]           # (A, n)
    # payoff[u, a, v, b] = p * term1[u, b] + (1 - p) * term2[a, v]
    payoff = (
        prio * term1[:, None, None, :]
        + (1.0 - prio) * term2[None, :, :, None]
    )
    supinf = float(payoff.min(axis=(2, 3)).max())
    infsup = float(payoff.max(axis=(0, 1)).min())
    mixed = mix(prio, *local_values(vals))
    residual = max(abs(supinf - mixed), abs(infsup - mixed))
    return supinf, infsup, residual


def _check_choice(
    name: str, choice: tuple[int, np.ndarray], own: int, other: int
) -> tuple[int, np.ndarray]:
    try:
        plain, counter = choice
    except (TypeError, ValueError) as exc:
        raise StaticGameError(f"{name} must be a (plain index, counter map) pair") from exc
    plain = int(plain)
    counter = np.asarray(counter, dtype=int)
    if not 0 <= plain < own:
        raise StaticGameError(f"{name} plain index {plain} out of range 0..{own - 1}")
    if counter.shape != (other,):
        raise StaticGameError(
            f"{name} counter map must have one entry per opponent action ({other})"
        )
    if counter.min(initial=0) < 0 or counter.max(initial=0) >= own:
        raise StaticGameError(f"{name} counter map entries out of range 0..{own - 1}")
    return plain, counter


def play_one_period(
    f: LocalGameMatrix | np.ndarray,
    prio: float,
    u_choice: tuple[int, np.ndarray],
    v_choice: tuple[int, np.ndarray],
    coin: float | None = None,
) -> float:
    """Realized payoff of one period under the coin rule.

    ``u_choice`` is (plain row, counter map alpha: column -> row) and
    ``v_choice`` is (plain column, counter map beta: row -> column).  With
    coin < prio the coin came up heads, v sees u: u commits its plain row
    and v's counter map answers.  Otherwise u's counter map answers v's
    plain column.  ``coin=None`` means prio must be degenerate (0 or 1),
    i.e. the order of moves is deterministic and no draw is consumed.
    """
    mat = _as_matrix(f)
    prio = float(_check_prio(prio))
    m, n = mat.shape
    u_plain, alpha = _check_choice("u_choice", u_choice, m, n)
    v_plain, beta = _check_choice("v_choice", v_choice, n, m)
    if coin is None:
        if prio not in (0.0, 1.0):
            raise StaticGameError("coin draw required for non-degenerate priority")
        heads = prio == 1.0
    else:
        coin = float(coin)
        if not 0.0 <= coin < 1.0:
            raise StaticGameError(f"coin draw must lie in [0, 1), got {coin}")
        heads = coin < prio
    if heads:
        return float(mat.values[u_plain, beta[u_plain]])
    return float(mat.values[alpha[v_plain], v_plain])
