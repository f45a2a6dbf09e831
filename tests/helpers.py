"""Problem builders shared across the test modules."""

import numpy as np

from isaacslab.engine import dp_value_deterministic
from isaacslab.problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemSpec,
)
from isaacslab.schedule import MarkSequence, SubGrid

SQRT2 = float(np.sqrt(2.0))


def bilinear_problem(
    prio_family="constant",
    prio_params=(0.5,),
    horizon=0.5,
    kappa=4.0,
    s0=SQRT2,
    payoff=("cosine", (1.0, 1.0)),
):
    """The benchmark game: dX = kappa u v dt + s0 dW, U = V = {-1, 1}."""
    return ProblemSpec(
        coefficients=CoefficientSpec("bilinear", (kappa, s0), dim=1, noise_dim=1),
        payoff=PayoffSpec(payoff[0], payoff[1], dim=1),
        priority=PrioritySpec(prio_family, prio_params, dim=1),
        actions_u=ActionSet.from_values((-1.0, 1.0)),
        actions_v=ActionSet.from_values((-1.0, 1.0)),
        horizon=horizon,
    )


def singleton_problem(
    drift=0.0,
    sigma=SQRT2,
    payoff=("clipped_quadratic", (64.0,)),
    horizon=0.5,
    prio=0.5,
):
    """Uncontrolled linear dynamics: both players have a single action."""
    return ProblemSpec(
        coefficients=CoefficientSpec("constant", (drift, sigma), dim=1, noise_dim=1),
        payoff=PayoffSpec(payoff[0], payoff[1], dim=1),
        priority=PrioritySpec("constant", (prio,), dim=1),
        actions_u=ActionSet.from_values((0.0,)),
        actions_v=ActionSet.from_values((0.0,)),
        horizon=horizon,
    )


def one_sided_chains(spec, partition, lattice):
    """Value arrays of the all-ones (p == 1, lower) and all-zeros (p == 0, upper) mark chains."""
    n = partition.intervals
    whole = SubGrid((0, n))
    lower = dp_value_deterministic(spec, partition, MarkSequence((1,) * n), whole, lattice)
    upper = dp_value_deterministic(spec, partition, MarkSequence((0,) * n), whole, lattice)
    return lower.value.values, upper.value.values


OU = dict(c0=0.2, c1=-1.0, sigma=1.0, horizon=0.5)


def ou_problem():
    """dX = (c0 + c1 X) dt + sigma dW with g = cos x: the actions move nothing."""
    return ProblemSpec(
        coefficients=CoefficientSpec(
            "affine", (OU["c0"], OU["c1"], OU["sigma"]), dim=1, noise_dim=1
        ),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec("constant", (0.5,), dim=1),
        actions_u=ActionSet.from_values((-1.0, 1.0)),
        actions_v=ActionSet.from_values((-1.0, 1.0)),
        horizon=OU["horizon"],
    )


def ou_value(tau, x):
    """E cos X_T from X = x, tau before T: e^{-s^2/2} cos m for the Gaussian law N(m, s^2).

    m = e^{c1 tau} x + c0 (e^{c1 tau} - 1) / c1 and
    s^2 = sigma^2 (e^{2 c1 tau} - 1) / (2 c1).
    """
    c0, c1, sigma = OU["c0"], OU["c1"], OU["sigma"]
    m = np.exp(c1 * tau) * np.asarray(x, dtype=float) + c0 * np.expm1(c1 * tau) / c1
    s2 = sigma**2 * np.expm1(2.0 * c1 * tau) / (2.0 * c1)
    return np.exp(-s2 / 2.0) * np.cos(m)
