"""Isaacs Hamiltonians over finite action grids.

For the generator L(t, x, u, v; grad, hess) = <b, grad> + 0.5 tr(sigma sigma^T hess)
the two one-sided Hamiltonians are

    lower:  max_u min_v L   (v sees u),
    upper:  min_v max_u L   (u sees v),

and the priority-weighted Hamiltonian is p(t, x) * lower + (1 - p) * upper.
Lower <= upper always (exchanging max and min), so the weighted one is
sandwiched between them.  The action grids are finite, which turns each
evaluation into a small matrix game, laid out f[u, v, state] and valued by
:func:`isaacslab.static_game.local_values`.

Drift and diffusion for all action pairs come from one
:meth:`isaacslab.problem.ProblemSpec.coefficient_table` call, and the
p-blend is :func:`isaacslab.static_game.mix`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problem import ProblemError, ProblemSpec
from .static_game import LocalGameMatrix, local_values, mix

__all__ = [
    "DifferentialState",
    "generator",
    "local_matrix",
    "hamiltonian_lower",
    "hamiltonian_upper",
    "hamiltonian_mixed",
    "generator_tensor",
    "hamiltonian_batch",
]

_SYM_TOL = 1e-12


@dataclass(frozen=True)
class DifferentialState:
    """Point (t, x) together with candidate derivatives (grad, hess).

    ``hess`` must be symmetric to within 1e-12; it stands for a second
    derivative, and the trace term silently symmetrizes otherwise.
    """

    t: float
    x: np.ndarray
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self) -> None:
        x = np.atleast_1d(np.asarray(self.x, dtype=float))
        grad = np.atleast_1d(np.asarray(self.grad, dtype=float))
        hess = np.atleast_2d(np.asarray(self.hess, dtype=float))
        d = x.shape[0]
        if grad.shape != (d,) or hess.shape != (d, d):
            raise ProblemError(
                f"grad must have shape ({d},) and hess ({d}, {d}); "
                f"got {grad.shape} and {hess.shape}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise ProblemError("state, grad and hess must be finite")
        if np.max(np.abs(hess - hess.T), initial=0.0) > _SYM_TOL:
            raise ProblemError("hess must be symmetric to within 1e-12")
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)


def generator_tensor(
    spec: ProblemSpec,
    t: float,
    X: np.ndarray,
    grads: np.ndarray,
    hesses: np.ndarray,
) -> np.ndarray:
    """Generator values for every action pair at a batch of states.

    X: (n, d), grads: (n, d), hesses: (n, d, d).  Returns (ku, kv, n);
    entry [a, b, i] is L at state i under u-action a and v-action b.  The
    coefficients come from one :meth:`ProblemSpec.coefficient_table` call.
    """
    X = np.asarray(X, dtype=float)
    grads = np.asarray(grads, dtype=float)
    hesses = np.asarray(hesses, dtype=float)
    bvec, sig = spec.coefficient_table(t, X)
    # 0.5 * tr(sigma sigma^T hess) = 0.5 * sum_{i,j} (sigma sigma^T)_{ij} hess_{ij}
    a2 = np.einsum("...ik,...jk->...ij", sig, sig)
    return np.einsum("...i,...i->...", bvec, grads) + 0.5 * np.einsum(
        "...ij,...ij->...", a2, hesses
    )


def generator(spec: ProblemSpec, state: DifferentialState, u, v) -> float:
    """<b, grad> + 0.5 tr(sigma sigma^T hess) at one point and action pair."""
    spec._check_time(state.t)
    iu = spec.actions_u.index_of(u)
    iv = spec.actions_v.index_of(v)
    tens = generator_tensor(
        spec, state.t, state.x[None, :], state.grad[None, :], state.hess[None, :, :]
    )
    return float(tens[iu, iv, 0])


def local_matrix(spec: ProblemSpec, state: DifferentialState) -> LocalGameMatrix:
    """The generator as a matrix game over the two action grids."""
    spec._check_time(state.t)
    tens = generator_tensor(
        spec, state.t, state.x[None, :], state.grad[None, :], state.hess[None, :, :]
    )
    return LocalGameMatrix(tens[..., 0])


def hamiltonian_lower(spec: ProblemSpec, state: DifferentialState) -> float:
    """max_u min_v of the generator: the side where v sees u."""
    return float(local_values(local_matrix(spec, state).values)[0])


def hamiltonian_upper(spec: ProblemSpec, state: DifferentialState) -> float:
    """min_v max_u of the generator: the side where u sees v."""
    return float(local_values(local_matrix(spec, state).values)[1])


def hamiltonian_mixed(spec: ProblemSpec, state: DifferentialState) -> float:
    """Priority-weighted Hamiltonian p(t,x) * lower + (1 - p(t,x)) * upper.

    Degenerate priorities reproduce the one-sided values bitwise.
    """
    p = spec.priority.scalar(state.t, state.x)
    return mix(p, *local_values(local_matrix(spec, state).values))


def hamiltonian_batch(
    spec: ProblemSpec,
    t: float,
    X: np.ndarray,
    grads: np.ndarray,
    hesses: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (lower, upper, mixed) over a batch of states.

    The mixed array comes from :func:`isaacslab.static_game.mix`: where
    p == 1 it is the lower array entry itself, where p == 0 the upper
    entry, bitwise.
    """
    lower, upper = local_values(generator_tensor(spec, t, X, grads, hesses))
    p = spec.priority_values(t, np.asarray(X, dtype=float))
    return lower, upper, mix(p, lower, upper)
