import dataclasses
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import SQRT2, bilinear_problem, ou_problem, ou_value, singleton_problem
from isaacslab import pde
from isaacslab.engine import _Stencil
from isaacslab.pde import BlowupError, CflError, PdeError, SpatialGrid, ValueField
from isaacslab.problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemError,
    ProblemSpec,
)

seed = 0


def test_grid_basics():
    grid = SpatialGrid(-1.0, 1.0, 5)
    assert grid.dx == 0.5
    assert np.array_equal(grid.xs, np.array([-1.0, -0.5, 0.0, 0.5, 1.0]))
    idx = grid.nearest_index(np.array([-0.9, 0.24, 2.0]))
    assert idx.tolist() == [0, 2, 4]


def test_grid_nodes_are_built_once_and_read_only():
    grid = SpatialGrid(-8.0, 8.0, 641)
    xs = grid.xs
    assert grid.xs is xs
    assert not xs.flags.writeable
    with pytest.raises(ValueError):
        xs[0] = 0.0
    assert xs.tobytes() == np.linspace(-8.0, 8.0, 641).tobytes()
    # the cached array is not a field: equal grids stay equal and hash alike
    other = SpatialGrid(-8.0, 8.0, 641)
    assert other == grid and hash(other) == hash(grid)


def _oracle_nearest_index(grid, x):
    """SpatialGrid.nearest_index as one expression with a clip."""
    idx = np.rint((np.asarray(x, dtype=float) - grid.lower) / grid.dx)
    return np.clip(idx, 0, grid.nodes - 1).astype(int)


def test_nearest_index_matches_clip_oracle_bitwise():
    grid = SpatialGrid(-8.0, 8.0, 641)
    rng = np.random.default_rng(seed)
    # half a cell either side of every node: exact or near ties for rint,
    # which rounds an exact tie to even
    ties = grid.xs[:, None] + np.array([-0.5, 0.5]) * grid.dx
    x = np.concatenate([
        rng.normal(0.0, 6.0, 2000), ties.ravel(), grid.xs,
        [np.inf, -np.inf, 1e300, -1e300, 9.0, -9.0, 0.0, -0.0],
    ])
    got = grid.nearest_index(x)
    want = _oracle_nearest_index(grid, x)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert got.min() == 0 and got.max() == grid.nodes - 1


def test_grid_validation():
    with pytest.raises(PdeError):
        SpatialGrid(1.0, -1.0, 5)
    with pytest.raises(PdeError):
        SpatialGrid(0.0, 1.0, 2)
    with pytest.raises(PdeError):
        SpatialGrid(0.0, np.inf, 5)


def test_value_field_validation():
    grid = SpatialGrid(0.0, 1.0, 3)
    with pytest.raises(PdeError):
        ValueField(grid, np.array([0.0, 0.0]), np.zeros((2, 3)))
    with pytest.raises(PdeError):
        ValueField(grid, np.array([0.0, 1.0]), np.zeros((2, 4)))
    for entry in (np.nan, np.inf, -np.inf):
        bad = np.zeros((2, 3))
        bad[1, 1] = entry
        with pytest.raises(PdeError):
            ValueField(grid, np.array([0.0, 1.0]), bad)


def test_value_field_lookup():
    grid = SpatialGrid(0.0, 1.0, 3)
    vf = ValueField(grid, np.array([0.0, 1.0]), np.array([[0.0, 1.0, 2.0], [4.0, 5.0, 6.0]]))
    assert np.array_equal(vf.initial_slice, [0.0, 1.0, 2.0])
    assert np.array_equal(vf.final_slice, [4.0, 5.0, 6.0])
    assert vf.value_at(0.0, 0.25) == 0.5
    # halfway in time, node 0: (0 + 4) / 2
    assert vf.value_at(0.5, 0.0) == 2.0
    with pytest.raises(PdeError):
        vf.slice_at(0.3)
    with pytest.raises(PdeError):
        vf.value_at(1.5, 0.0)


@pytest.mark.parametrize("values", [
    np.full(9, -0.0),
    np.array([-0.0, 1.0, -0.0, -2.0, 0.0, -0.0, 3.0, -0.0, -0.0]),
    np.random.default_rng(5).normal(size=9),
    # finite values whose slopes overflow to +-inf: the formula is +-inf off
    # the nodes and NaN on them until the held values overwrite it
    np.array([1e308, -1e308] * 4 + [1e308]),
], ids=["negative_zeros", "signed_zeros", "normal", "overflowing_slopes"])
def test_stencil_is_np_interp_bitwise_at_every_edge_case(values):
    # on a node (the first and last included), between nodes, past either
    # edge, at +-inf and at NaN; a held node value keeps -0.0, which
    # slope * 0 + V[j] would turn into +0.0
    xs = SpatialGrid(-1.0, 1.0, 9).xs
    x = np.concatenate([
        xs, (xs[:-1] + xs[1:]) / 2, [-0.0, np.nextafter(1.0, 0.0), np.nextafter(-1.0, 0.0)],
        [-1.5, 1.5, np.nextafter(1.0, 2.0), np.nextafter(-1.0, -2.0), -np.inf, np.inf, np.nan],
    ])
    x = np.random.default_rng(6).permutation(x).reshape(3, 9)
    stencil = _Stencil(xs, x)
    assert stencil.left.dtype == np.uint8
    want = np.interp(x.ravel(), xs, values).reshape(x.shape)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = stencil(values)
        # one stencil serves any slice on the same points
        flipped = stencil(-values)
    assert got.shape == x.shape
    assert got.tobytes() == want.tobytes()
    assert flipped.tobytes() == np.interp(x.ravel(), xs, -values).tobytes()


def test_value_at_is_the_time_blend_of_np_interp_bitwise():
    grid = SpatialGrid(-1.0, 1.0, 9)
    xs = grid.xs
    times = np.array([0.0, 0.3, 1.0])
    values = np.random.default_rng(7).normal(size=(3, 9))
    values[0, [0, 4]] = -0.0
    values[1, [4, 8]] = 0.0
    values[2, [2, 4]] = -0.0
    field = ValueField(grid, times, values)
    # on nodes (signed zeros among their values), between nodes, past both
    # edges and at +-inf
    points = [*xs, -0.0, *(xs[:-1] + xs[1:]) / 2, -1.5, 1.5, -np.inf, np.inf]
    for t in (0.0, 0.1, 0.3, 0.65, 1.0):
        k = min(int(np.searchsorted(times, t, side="right")) - 1, times.size - 2)
        w = (t - times[k]) / (times[k + 1] - times[k])
        for x in points:
            want = (1.0 - w) * np.interp(x, xs, values[k]) + w * np.interp(x, xs, values[k + 1])
            assert np.float64(field.value_at(t, x)).tobytes() == np.float64(want).tobytes()


def test_cfl_pure_diffusion():
    # sigma = sqrt(2), dx = 0.1: dt <= (1 - 1e-6) / (sigma^2 / dx^2) = 0.005 ...
    prob = singleton_problem(drift=0.0, sigma=SQRT2)
    grid = SpatialGrid(-5.0, 5.0, 101)
    dt = pde.cfl_max_dt(prob, grid)
    assert abs(dt - 0.005 * (1.0 - 1e-6)) < 1e-12


def test_cfl_pure_drift():
    # sigma = 0, |b| = 4, dx = 0.1: dt <= (1 - 1e-6) / (4 / 0.1)
    prob = singleton_problem(drift=4.0, sigma=0.0)
    grid = SpatialGrid(-5.0, 5.0, 101)
    dt = pde.cfl_max_dt(prob, grid)
    assert abs(dt - 0.025 * (1.0 - 1e-6)) < 1e-12


def test_cfl_drift_plus_diffusion():
    # bilinear on |x| <= 5 with kappa=4: max|b| = 4, max sigma^2 = 2
    prob = bilinear_problem()
    grid = SpatialGrid(-5.0, 5.0, 101)
    dt = pde.cfl_max_dt(prob, grid)
    expect = (1.0 - 1e-6) / (4.0 / 0.1 + 2.0 / 0.01)
    assert abs(dt - expect) < 1e-15


def test_cfl_scales_with_dx():
    # diffusion-dominated: doubling dx quadruples the time step
    prob = singleton_problem(drift=0.0, sigma=SQRT2)
    fine = pde.cfl_max_dt(prob, SpatialGrid(-5.0, 5.0, 201))
    coarse = pde.cfl_max_dt(prob, SpatialGrid(-5.0, 5.0, 101))
    assert abs(coarse / fine - 4.0) < 1e-9


def test_solve_rejects_unstable_dt():
    prob = singleton_problem()
    grid = SpatialGrid(-5.0, 5.0, 101)
    with pytest.raises(CflError):
        pde.solve(prob, grid, dt=10.0 * pde.cfl_max_dt(prob, grid), hamiltonian="mixed")


def test_constant_payoff_is_exact():
    # H == 0 when g is constant, so every slice equals the constant bitwise
    prob = singleton_problem(payoff=("constant", (0.7,)))
    grid = SpatialGrid(-4.0, 4.0, 81)
    field = pde.solve(prob, grid, dt=pde.cfl_max_dt(prob, grid), hamiltonian="mixed")
    assert np.all(field.values == 0.7)


def test_heat_equation_oracle():
    # b=0, sigma=sqrt(2): v_t + v_xx = 0, g(x)=x^2 => v(t,x) = x^2 + 2(T-t).
    # With T - t = 0.5 the clip at 64 is irrelevant for |x| <= 2.
    prob = singleton_problem(drift=0.0, sigma=SQRT2, payoff=("clipped_quadratic", (64.0,)))
    grid = SpatialGrid(-8.0, 8.0, 321)
    field = pde.solve(prob, grid, dt=pde.cfl_max_dt(prob, grid), hamiltonian="mixed")
    xs = grid.xs
    window = np.abs(xs) <= 2.0
    exact = xs[window] ** 2 + 1.0
    err = np.max(np.abs(field.initial_slice[window] - exact))
    assert err < 2e-2
    assert abs(field.value_at(0.0, 0.0) - 1.0) < 2e-2


def test_drifted_cosine_oracle():
    # b=mu, sigma=s: v(t,x) = exp(-s^2 (T-t)/2) cos(x + mu (T-t))
    prob = singleton_problem(drift=0.01, sigma=1.0, payoff=("cosine", (1.0, 1.0)))
    grid = SpatialGrid(-8.0, 8.0, 321)
    field = pde.solve(prob, grid, dt=pde.cfl_max_dt(prob, grid), hamiltonian="mixed")
    xs = grid.xs
    window = np.abs(xs) <= 2.0
    exact = np.exp(-0.25) * np.cos(xs[window] + 0.005)
    err = np.max(np.abs(field.initial_slice[window] - exact))
    assert err < 2e-2


@pytest.mark.parametrize("ham", ["lower", "mixed", "upper"])
def test_maximum_principle(ham):
    # scheme is monotone, so values stay inside the terminal bounds
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 321)
    field = pde.solve(prob, grid, dt=pde.cfl_max_dt(prob, grid), hamiltonian=ham)
    assert np.all(field.values <= 1.0 + 1e-9)
    assert np.all(field.values >= -1.0 - 1e-9)


def test_hamiltonian_ordering():
    prob = bilinear_problem(prio_family="constant", prio_params=(0.5,))
    grid = SpatialGrid(-8.0, 8.0, 321)
    dt = pde.cfl_max_dt(prob, grid)
    lo = pde.solve(prob, grid, dt=dt, hamiltonian="lower")
    mid = pde.solve(prob, grid, dt=dt, hamiltonian="mixed")
    hi = pde.solve(prob, grid, dt=dt, hamiltonian="upper")
    assert np.all(lo.values <= mid.values + 1e-9)
    assert np.all(mid.values <= hi.values + 1e-9)


def test_isaacs_gap_zero_for_singleton():
    # one action per side: sup inf == inf sup pointwise, bitwise
    prob = singleton_problem()
    grid = SpatialGrid(-4.0, 4.0, 161)
    gap = pde.isaacs_gap(prob, grid, pde.cfl_max_dt(prob, grid))
    assert np.all(gap.values == 0.0)


def test_isaacs_gap_positive_for_bilinear():
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 161)
    gap = pde.isaacs_gap(prob, grid, pde.cfl_max_dt(prob, grid))
    assert np.min(gap.values) >= -1e-9
    interior = np.abs(grid.xs) <= 2.0
    assert np.max(gap.values[:, interior]) > 1e-3


@pytest.mark.parametrize("p, ham", [(0.0, "upper"), (1.0, "lower")])
def test_degenerate_priority_matches_one_sided(p, ham):
    prob = bilinear_problem(prio_family="constant", prio_params=(p,))
    grid = SpatialGrid(-6.0, 6.0, 161)
    dt = pde.cfl_max_dt(prob, grid)
    mixed = pde.solve(prob, grid, dt=dt, hamiltonian="mixed")
    side = pde.solve(prob, grid, dt, hamiltonian=ham)
    assert np.array_equal(mixed.values, side.values)


def test_monotone_in_terminal_data():
    # clipping at 4 sits below clipping at 64 everywhere, so values order too
    grid = SpatialGrid(-6.0, 6.0, 161)
    small = bilinear_problem(payoff=("clipped_quadratic", (4.0,)))
    large = bilinear_problem(payoff=("clipped_quadratic", (64.0,)))
    dt = min(pde.cfl_max_dt(small, grid), pde.cfl_max_dt(large, grid))
    v1 = pde.solve(small, grid, dt=dt, hamiltonian="mixed")
    v2 = pde.solve(large, grid, dt=dt, hamiltonian="mixed")
    assert np.all(v1.values <= v2.values + 1e-12)


def test_zero_horizon_returns_terminal():
    prob = singleton_problem()
    prob = dataclasses.replace(prob, start_time=prob.horizon)
    grid = SpatialGrid(-4.0, 4.0, 81)
    field = pde.solve(prob, grid, dt=0.01, hamiltonian="mixed")
    assert field.values.shape == (1, 81)
    assert np.array_equal(field.values[0], prob.payoff_values(grid.xs[:, None]))


def test_collapsed_time_grid_raises_before_the_march(monkeypatch):
    # floats near 1e14 are 2**-6 apart, above the CFL step, so step times
    # repeat; solve must say so without marching the field first
    prob = dataclasses.replace(bilinear_problem(horizon=1e14 + 0.5), start_time=1e14)
    grid = SpatialGrid(-8.0, 8.0, 201)
    dt = pde.cfl_max_dt(prob, grid)
    assert dt < np.spacing(1e14) == 2.0**-6

    def no_march(*args, **kwargs):
        raise AssertionError("the march ran on a collapsed time grid")

    monkeypatch.setattr(pde, "_backward_sweep", no_march)
    with pytest.raises(PdeError, match=r"float spacing of 0.0156 at the start time 1e\+14$"):
        pde.solve(prob, grid, dt)


# --- the vectorised march against a per-step, per-action-pair oracle ----------

COEFFICIENT_CASES = {
    "constant": (0.3, 1.0),
    "affine": (0.2, -0.4, 1.2),
    "bilinear": (4.0, SQRT2),
}
# (family, params).  linear_time runs from p = 0 at t = 0 to exactly p = 1
# at T, so the exact-endpoint branch of the blend is taken on the first
# step; logistic_time (wx = 0) is tabulated through the batched exp, while
# logistic is evaluated on the nodes at every step
PRIORITY_CASES = {
    "constant": ("constant", (0.3,)),
    "linear_time": ("linear_time", (0.0, 2.0)),
    "logistic": ("logistic", (0.3, -1.0, 0.8)),
    "logistic_time": ("logistic", (0.3, -1.0, 0.0)),
}


def _pde_problem(coef, prio, u_values=(-1.0, 1.0), v_values=(-1.0, 1.0)):
    return ProblemSpec(
        coefficients=CoefficientSpec(coef, COEFFICIENT_CASES[coef], dim=1, noise_dim=1),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec(*PRIORITY_CASES[prio], dim=1),
        actions_u=ActionSet.from_values(u_values),
        actions_v=ActionSet.from_values(v_values),
        horizon=0.5,
    )


def _oracle_march(spec, grid, dt, hamiltonian, form="stencil", s2_shift=None):
    """The explicit march written pair by pair and step by step, coefficients re-read each step.

    ``form="stencil"`` builds each pair's generator from its dt-scaled upwind
    weights on W(j+1) - W(j) and W(j-1) - W(j), as :func:`pde.solve` does;
    ``form="quotient"`` from the upwind slope and the central second
    difference, scaled by dt after the blend.  ``s2_shift = (a, c, j,
    delta)`` adds delta to sigma sigma^T of pair (a, c) at node j.
    """
    span = spec.horizon - spec.start_time
    m = max(1, int(np.ceil(span / dt - 1e-12)))
    dt_eff = span / m
    times = spec.start_time + np.arange(m + 1) * dt_eff
    dx = grid.dx
    X = grid.xs[:, None]
    n = X.shape[0]
    ku, kv = spec.actions_u.size, spec.actions_v.size
    W = spec.payoff_values(X).astype(float)
    out = np.empty((m + 1, n))
    out[m] = W
    for k in range(m, 0, -1):
        t = float(times[k])
        We = np.pad(W, 1, mode="edge")
        d_up, d_down = We[2:] - W, We[:-2] - W
        forward = (We[2:] - We[1:-1]) / dx
        backward = (We[1:-1] - We[:-2]) / dx
        second = (We[2:] - 2.0 * We[1:-1] + We[:-2]) / dx**2
        gen = np.empty((n, ku, kv))
        for a in range(ku):
            U = np.broadcast_to(spec.actions_u.array[a], (n, spec.actions_u.dim))
            for c in range(kv):
                V = np.broadcast_to(spec.actions_v.array[c], (n, spec.actions_v.dim))
                b = spec.drift(t, X, U, V)[:, 0]
                sig = spec.diffusion(t, X, U, V)[:, 0, :]
                s2 = np.sum(sig * sig, axis=1)
                if s2_shift is not None and s2_shift[:2] == (a, c):
                    s2[s2_shift[2]] += s2_shift[3]
                if form == "stencil":
                    diffusion = s2 / (2.0 * dx**2)
                    w_up = dt_eff * (np.maximum(b, 0.0) / dx + diffusion)
                    w_down = dt_eff * (np.maximum(-b, 0.0) / dx + diffusion)
                    gen[:, a, c] = w_up * d_up + w_down * d_down
                else:
                    gen[:, a, c] = (np.where(b >= 0.0, b * forward, b * backward)
                                    + 0.5 * s2 * second)
        low = gen.min(axis=2).max(axis=1)
        up = gen.max(axis=1).min(axis=1)
        if hamiltonian == "lower":
            H = low
        elif hamiltonian == "upper":
            H = up
        else:
            p = spec.priority_values(t, X)
            H = np.where(p == 1.0, low, np.where(p == 0.0, up, p * low + (1.0 - p) * up))
        W = W + (H if form == "stencil" else dt_eff * H)
        out[k - 1] = W
    return times, out


def _rounding_bound(times, c):
    """c * eps * max|g| per step, over the steps of the march; max|g| = 1 for the cosine payoff.

    The march is monotone and its local games are 1-Lipschitz in the sup
    norm, so a difference made at one step is carried, not amplified, by
    the later steps: the differences of m steps add up to at most m times
    the largest one.
    """
    return (times.size - 1) * c * np.finfo(float).eps


def _assert_matches_oracle(spec, ham):
    """Bitwise one-sided where the weights vary along the nodes, else within a per-step bound.

    Node-varying weights take one einsum, bitwise W + (w+ D+ + w- D-) as
    the oracle writes it, and rounding is monotone, so the lower and upper
    values of W + L are W plus those of L, bitwise.  The mixed mode then
    blends W + lower and W + upper where the oracle adds the blend of lower
    and upper to W, within 6 eps per step: both round the same sum
    W + p lower + (1 - p) upper.  The march rounds W + lower and
    W + upper, weighed by p and 1 - p, then 1 - p, the two products and
    their sum, each at most eps/2 max|W|: 2 eps max|W|.  The oracle rounds
    1 - p, the two products and their sum on generator values up to
    2 max|W| (the weights sum to at most 1 and |D| <= 2 max|W|), then the
    update: 3.5 eps max|W|.  Weights equal along the nodes take one matrix
    product, which may fuse a product into the sum (one rounding in place
    of two): each generator entry moves by at most 2 eps (|w+ D+| +
    |w- D-|) <= 4 eps max|W|; the blend and the update add at most
    4 eps max|W| more.
    """
    grid = SpatialGrid(-8.0, 8.0, 101)
    dt = pde.cfl_max_dt(spec, grid)
    field = pde.solve(spec, grid, dt, hamiltonian=ham)
    times, values = _oracle_march(spec, grid, dt, ham)
    assert np.array_equal(field.times, times)
    b, s2 = pde.coefficient_table(spec, 0.0, grid.xs)
    if np.all(b == b[..., :1]) and np.all(s2 == s2[..., :1]):
        assert np.max(np.abs(field.values - values)) <= _rounding_bound(times, 8.0)
    elif ham == "mixed":
        assert np.max(np.abs(field.values - values)) <= _rounding_bound(times, 6.0)
    else:
        assert np.array_equal(field.values, values)


@pytest.mark.parametrize("ham", ["lower", "upper", "mixed"])
@pytest.mark.parametrize("prio", sorted(PRIORITY_CASES))
@pytest.mark.parametrize("coef", sorted(COEFFICIENT_CASES))
def test_solve_matches_per_pair_oracle_bitwise(coef, prio, ham):
    _assert_matches_oracle(_pde_problem(coef, prio), ham)


@pytest.mark.parametrize("ham", ["lower", "upper", "mixed"])
def test_solve_matches_oracle_with_unequal_action_sets(ham):
    # 3 x 2 actions: the two reductions run over axes of different length
    spec = _pde_problem("bilinear", "logistic", u_values=(-1.0, 0.0, 1.0))
    _assert_matches_oracle(spec, ham)


@pytest.mark.parametrize("ham", ["lower", "upper", "mixed"])
@pytest.mark.parametrize("coef", sorted(COEFFICIENT_CASES))
def test_solve_agrees_with_difference_quotient_march(coef, ham):
    # dt (b+/dx + s2/2dx^2) (W(j+1) - W(j)) + ... against b+ (W(j+1) - W(j))/dx
    # + s2/2 (W(j+1) - 2W(j) + W(j-1))/dx^2 scaled by dt after the blend: per
    # step both round the same increment, bounded by 2 max|W|, through at
    # most 8 operations each, and the second difference cancels W(j) apart
    spec = _pde_problem(coef, "logistic")
    grid = SpatialGrid(-8.0, 8.0, 101)
    dt = pde.cfl_max_dt(spec, grid)
    field = pde.solve(spec, grid, dt, hamiltonian=ham)
    times, values = _oracle_march(spec, grid, dt, ham, form="quotient")
    assert np.max(np.abs(field.values - values)) <= _rounding_bound(times, 16.0)


def test_affine_march_converges_to_the_ornstein_uhlenbeck_value_at_first_order():
    # the affine drift varies along the nodes, so the march takes the einsum;
    # upwind differences are first order in dx, so each doubling of the nodes
    # about halves the error on |x| <= 2, away from the zero-slope edges
    spec = ou_problem()
    errors = []
    for nodes in (161, 321, 641):
        grid = SpatialGrid(-8.0, 8.0, nodes)
        b, _ = pde.coefficient_table(spec, 0.0, grid.xs)
        assert not np.all(b == b[..., :1])
        field = pde.solve(spec, grid, pde.cfl_max_dt(spec, grid), hamiltonian="lower")
        inner = np.abs(grid.xs) <= 2.0
        exact = ou_value(spec.horizon, grid.xs[inner])
        errors.append(float(np.max(np.abs(field.initial_slice[inner] - exact))))
    assert errors[-1] <= 3e-3
    for coarse, fine in zip(errors, errors[1:]):
        assert 1.7 <= coarse / fine <= 2.3


def test_node_varying_weights_take_the_einsum_path_bitwise(monkeypatch):
    # bilinear weights are equal along the nodes: one matrix product per step.
    # A finite bump of sigma sigma^T at one node makes them vary, and the
    # march must then take the einsum and match the stencil oracle, bitwise
    # in the one-sided modes and within 6 eps per step when mixed (the
    # bound derived in _assert_matches_oracle)
    spec = _pde_problem("bilinear", "logistic", u_values=(-1.0, 0.0, 1.0))
    grid = SpatialGrid(-8.0, 8.0, 101)
    einsum = np.einsum
    calls = []

    def counted_einsum(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted_einsum)
    pde.solve(spec, grid, pde.cfl_max_dt(spec, grid), hamiltonian="mixed")
    assert calls == []
    table = pde.coefficient_table

    def bumped_table(spec, t, xs):
        b, s2 = table(spec, t, xs)
        s2[2, 1, 40] += 0.5
        return b, s2

    monkeypatch.setattr(pde, "coefficient_table", bumped_table)
    dt = pde.cfl_max_dt(spec, grid)
    for ham in ("lower", "upper", "mixed"):
        calls.clear()
        field = pde.solve(spec, grid, dt, hamiltonian=ham)
        times, values = _oracle_march(spec, grid, dt, ham, s2_shift=(2, 1, 40, 0.5))
        assert len(calls) == times.size - 1
        if ham == "mixed":
            assert np.max(np.abs(field.values - values)) <= _rounding_bound(times, 6.0)
        else:
            assert np.array_equal(field.values, values)


_THREADED_MARCH = """
import dataclasses, hashlib
import numpy as np
from isaacslab import pde
from test_pde import _pde_problem

actions = tuple(np.linspace(-1.0, 1.0, 9))
spec = _pde_problem("bilinear", "logistic", u_values=actions, v_values=actions)
grid = pde.SpatialGrid(-8.0, 8.0, 10007)
dt = pde.cfl_max_dt(spec, grid)
spec = dataclasses.replace(spec, start_time=spec.horizon - 30 * dt)
field = pde.solve(spec, grid, dt, hamiltonian="mixed")
print(field.times.size, hashlib.sha256(field.values.tobytes()).hexdigest())
"""


def test_matrix_product_march_is_the_same_on_one_and_two_blas_threads():
    # the product path must give the same field whatever BLAS threading the
    # process has, as the CLI's output files are compared byte for byte.  At
    # 81 pairs x 10007 nodes OpenBLAS splits each product over two threads
    # when it may (about twice as much CPU time as wall time)
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", _THREADED_MARCH], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(run.stdout)
    assert len(digests) == 1 and digests.pop().startswith("31 ")


def test_coefficient_table_layout():
    spec = _pde_problem("bilinear", "constant", u_values=(-1.0, 0.0, 1.0))
    xs = np.linspace(-1.0, 1.0, 7)
    b, s2 = pde.coefficient_table(spec, 0.0, xs)
    assert b.shape == s2.shape == (3, 2, 7)
    # bilinear drift kappa * u * v, sigma sigma^T = s0^2 everywhere
    expect = 4.0 * np.outer([-1.0, 0.0, 1.0], [-1.0, 1.0])
    assert np.array_equal(b, np.broadcast_to(expect[:, :, None], (3, 2, 7)))
    assert np.array_equal(s2, np.full((3, 2, 7), SQRT2 * SQRT2))


@pytest.mark.parametrize("ham", ["mixed", "lower"])
def test_march_raises_blowup_past_the_stability_bound(monkeypatch, ham):
    # a step 20x past the bound slips through the CFL check only because the
    # bound is patched; the march itself must then stop at an unstable slice
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 161)
    dt = 20.0 * pde.cfl_max_dt(prob, grid)
    monkeypatch.setattr(pde, "cfl_max_dt", lambda spec, grid: dt)
    with pytest.raises(BlowupError, match="left the terminal bounds"):
        pde.solve(prob, grid, dt, hamiltonian=ham)


@pytest.mark.parametrize("source", ["payoff", "coefficients"])
def test_march_raises_blowup_on_a_nan_slice(monkeypatch, source):
    # a NaN at one node fails both bound comparisons of the blow-up check,
    # whether it sits in the terminal data (NaN bounds) or first appears in
    # the march (finite bounds, from a NaN diffusion entry at one node)
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 161)
    dt = pde.cfl_max_dt(prob, grid)
    if source == "payoff":
        cosine = ProblemSpec.payoff_values

        def payoff_with_nan(self, X):
            out = cosine(self, X)
            out[80] = np.nan
            return out

        monkeypatch.setattr(ProblemSpec, "payoff_values", payoff_with_nan)
    else:
        table = pde.coefficient_table

        def table_with_nan(spec, t, xs):
            b, s2 = table(spec, t, xs)
            s2[0, 1, 80] = np.nan
            return b, s2

        monkeypatch.setattr(pde, "coefficient_table", table_with_nan)
        monkeypatch.setattr(pde, "cfl_max_dt", lambda spec, grid: dt)
    for ham in ("mixed", "lower"):
        with pytest.raises(BlowupError, match="left the terminal bounds"):
            pde.solve(prob, grid, dt, hamiltonian=ham)


@pytest.mark.parametrize(
    "params, t_first",
    # p = 0.3 + 2t leaves [0, 1] above t = 0.35, at the first step of the
    # backward march; p = 1.2 - 2t leaves it below t = 0.1, near the end
    [((0.3, 2.0), "0.5"), ((1.2, -2.0), "0.09615384615384616")],
)
def test_time_only_priority_leaving_unit_interval_raises_before_the_march(
    monkeypatch, params, t_first
):
    # the error names the first step time the march meets outside [0, 1],
    # as a per-step evaluation would, but is raised before any step is blended
    prob = bilinear_problem(prio_family="linear_time", prio_params=params)
    grid = SpatialGrid(-8.0, 8.0, 101)
    dt = pde.cfl_max_dt(prob, grid)
    blends = []
    monkeypatch.setattr(pde, "mix", lambda *args: blends.append(args))
    message = f"priority family 'linear_time' left [0, 1] at t={t_first}"
    with pytest.raises(ProblemError, match=f"^{re.escape(message)}$"):
        pde.solve(prob, grid, dt, hamiltonian="mixed")
    assert blends == []
    # the one-sided modes never read the priority; they do blend, through the real mix
    monkeypatch.undo()
    for ham in ("lower", "upper"):
        assert np.all(np.isfinite(pde.solve(prob, grid, dt, hamiltonian=ham).values))
