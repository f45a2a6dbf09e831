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

Both entry points take a batch of states; one state is a one-row batch.
:func:`generator_tensor` gives L for every action pair, with drift and
diffusion from one :meth:`isaacslab.problem.ProblemSpec.coefficient_table`
call, and :func:`hamiltonian_batch` values its games and blends them by
:func:`isaacslab.static_game.mix`.
"""

from __future__ import annotations

import numpy as np

from .problem import ProblemSpec
from .static_game import local_values, mix

__all__ = [
    "generator_tensor",
    "hamiltonian_batch",
]


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
