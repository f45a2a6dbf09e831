import dataclasses

import numpy as np
import pytest

from helpers import SQRT2, bilinear_problem, singleton_problem
from isaacslab import problem
from isaacslab.problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemError,
    coefficient_family_names,
    priority_family_names,
    validate_assumptions,
)

seed = 0


def test_action_set_basics():
    acts = ActionSet.from_values((-1.0, 1.0))
    assert acts.size == 2
    assert acts.dim == 1
    assert acts.array.tolist() == [[-1.0], [1.0]]


def test_action_set_rejects_bad_input():
    with pytest.raises(ProblemError):
        ActionSet.from_values(())
    with pytest.raises(ProblemError):
        ActionSet.from_values((1.0, 1.0))
    with pytest.raises(ProblemError):
        ActionSet.from_values((np.inf,))


def test_unknown_families_rejected():
    with pytest.raises(ProblemError):
        CoefficientSpec("cubic", (1.0,), dim=1, noise_dim=1)
    with pytest.raises(ProblemError):
        PayoffSpec("absolute", (1.0,), dim=1)
    with pytest.raises(ProblemError):
        PrioritySpec("step", (0.5,), dim=1)
    assert "bilinear" in coefficient_family_names()


def test_param_count_validation():
    with pytest.raises(ProblemError):
        CoefficientSpec("bilinear", (4.0,), dim=1, noise_dim=1)
    with pytest.raises(ProblemError):
        PayoffSpec("cosine", (1.0,), dim=1)


def test_bilinear_drift_and_diffusion():
    spec = bilinear_problem()
    # U = V = (-1, 1), so entry [1, 0, 0] is (u, v) = (1, -1) at the one state
    b, sig = spec.coefficient_table(0.0, np.array([[0.0]]))
    assert b.shape == (2, 2, 1, 1)
    assert sig.shape == (2, 2, 1, 1, 1)
    assert b[1, 0, 0, 0] == -4.0
    assert sig[1, 0, 0, 0, 0] == SQRT2


def test_bilinear_sign_flip_in_u():
    spec = bilinear_problem()
    b, _ = spec.coefficient_table(0.1, np.array([[0.3]]))
    assert b[1, 1, 0, 0] == -b[0, 1, 0, 0]  # u = 1 against u = -1 at v = 1


def test_bilinear_linear_growth_far_out():
    spec = bilinear_problem()
    xs = np.linspace(-1e3, 1e3, 101)
    b, sig = spec.coefficient_table(0.0, xs[:, None])
    # (u, v) = (1, 1) at every state
    ratio = (np.abs(b[1, 1, :, 0]) + np.abs(sig[1, 1, :, 0, 0])) / (1.0 + np.abs(xs))
    assert ratio.max() <= 6.0


def test_affine_drift_formula():
    coeff = CoefficientSpec("affine", (0.5, -2.0, 1.0), dim=1, noise_dim=1)
    X = np.array([[0.25]])
    U = V = np.zeros((1, 1))
    assert coeff.drift(0.0, X, U, V)[0, 0] == 0.5 - 2.0 * 0.25


def test_state_independent_families_bitwise():
    spec = bilinear_problem()
    U = V = np.ones((1, 1))
    b1 = spec.drift(0.0, np.array([[0.0]]), U, V)
    b2 = spec.drift(0.0, np.array([[3.7]]), U, V)
    assert np.array_equal(b1, b2)


@pytest.mark.parametrize("family", coefficient_family_names())
def test_every_coefficient_family_ignores_time(family):
    # the solvers evaluate one coefficient table for every time, so drift and
    # diffusion at t = 0 and t = T must agree bitwise for every registered family
    rng = np.random.default_rng(seed)
    d = d_prime = 2
    count = problem._COEFFICIENT_FAMILIES[family].param_count(d, d_prime)
    coeff = CoefficientSpec(family, rng.uniform(-2.0, 2.0, count), dim=d, noise_dim=d_prime)
    X = rng.normal(0.0, 5.0, (64, d))
    U = rng.uniform(-1.0, 1.0, (64, 2))
    V = rng.uniform(-1.0, 1.0, (64, 2))
    horizon = 0.5
    assert np.array_equal(coeff.drift(0.0, X, U, V), coeff.drift(horizon, X, U, V))
    assert np.array_equal(coeff.diffusion(0.0, X, U, V), coeff.diffusion(horizon, X, U, V))


def _integral_of_exp(rate: float, h: float) -> float:
    """int_0^h e^{rate r} dr by 20-point Gauss-Legendre, not by a closed form."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    r = 0.5 * h * (nodes + 1.0)
    return float(0.5 * h * np.sum(weights * np.exp(rate * r)))


@pytest.mark.parametrize("family", coefficient_family_names())
def test_every_coefficient_family_interval_law_is_honest(family):
    # forward play moves each path once per interval by X' = a X + c b0 + s sigma dW,
    # dW ~ N(0, h), with b0 and sigma read from the action-pair table at X = 0
    rng = np.random.default_rng(seed)
    count = problem._COEFFICIENT_FAMILIES[family].param_count(1, 1)
    coeff = CoefficientSpec(family, rng.uniform(-2.0, 2.0, count), dim=1, noise_dim=1)
    X = rng.normal(0.0, 5.0, (64, 1))
    zero = np.zeros_like(X)
    U = rng.uniform(-1.0, 1.0, (64, 1))
    V = rng.uniform(-1.0, 1.0, (64, 1))
    b0, sig = coeff.drift(0.0, zero, U, V), coeff.diffusion(0.0, zero, U, V)[:, :, 0]
    slope = (coeff.drift(0.0, X, U, V) - b0) / X
    for h in (0.5, 0.05, 1e-3):
        a, c, s = coeff.interval_law(h)
        if a == 1.0:
            # the family ignores the state: the X = 0 table holds at every X, bitwise
            assert (c, s) == (h, 1.0)
            assert np.array_equal(coeff.drift(0.0, X, U, V), b0)
            assert np.array_equal(coeff.diffusion(0.0, X, U, V)[:, :, 0], sig)
            continue
        # affine drift b0 + c1 x: the Ornstein-Uhlenbeck mean e^{c1 h} x + b0 int e^{c1 r}
        # and variance sigma^2 int e^{2 c1 r} over [0, h]
        c1 = float(slope[0, 0])
        assert np.allclose(slope, c1, rtol=1e-12, atol=1e-12)
        mean = np.exp(c1 * h) * X + b0 * _integral_of_exp(c1, h)
        assert np.allclose(a * X + c * b0, mean, rtol=1e-12, atol=1e-12)
        assert np.allclose((s * sig) ** 2 * h, sig ** 2 * _integral_of_exp(2.0 * c1, h),
                           rtol=1e-12, atol=0.0)
    # as h -> 0 the law is the Euler step: (a - 1) / h tends to the drift's x-slope
    for h in (1e-4, 1e-6):
        a = coeff.interval_law(h)[0]
        assert np.allclose((a - 1.0) / h, slope, rtol=0.0, atol=4.0 * h + 1e-9)


def test_affine_interval_law_is_for_one_dimension():
    # with two coordinates the noise of one is no scaled copy of its own increment
    coeff = CoefficientSpec("affine", (0.0, 0.0, -1.0, -2.0, 1.0, 0.0, 0.0, 1.0), dim=2,
                            noise_dim=2)
    with pytest.raises(ProblemError, match="state dimension 1"):
        coeff.interval_law(0.1)


@pytest.mark.parametrize(
    "family,params",
    [
        ("constant", (0.3, 1.2)),
        ("affine", (0.1, -0.5, 0.8)),
        ("bilinear", (2.0, 1.0)),
    ],
)
def test_coefficient_shapes_and_finiteness(family, params):
    rng = np.random.default_rng(seed)
    coeff = CoefficientSpec(family, params, dim=1, noise_dim=1)
    X = rng.normal(0.0, 5.0, (64, 1))
    U = rng.choice([-1.0, 1.0], (64, 1))
    V = rng.choice([-1.0, 1.0], (64, 1))
    b = coeff.drift(0.25, X, U, V)
    sig = coeff.diffusion(0.25, X, U, V)
    assert b.shape == (64, 1)
    assert sig.shape == (64, 1, 1)
    assert np.all(np.isfinite(b))
    assert np.all(np.isfinite(sig))


def test_payoff_families():
    cos_g = PayoffSpec("cosine", (2.0, 3.0), dim=1)
    assert np.allclose(cos_g.value(np.array([[0.5]])), 2.0 * np.cos(1.5))
    assert cos_g.bound == 2.0
    quad = PayoffSpec("clipped_quadratic", (4.0,), dim=1)
    assert quad.value(np.array([[1.5]]))[0] == 2.25
    assert quad.value(np.array([[3.0]]))[0] == 4.0  # clip binds
    assert quad.bound == 4.0
    const = PayoffSpec("constant", (0.7,), dim=1)
    assert np.all(const.value(np.zeros((5, 1))) == 0.7)


def test_constant_priority_range_checked():
    with pytest.raises(ProblemError):
        PrioritySpec("constant", (1.7,), dim=1)
    with pytest.raises(ProblemError):
        PrioritySpec("constant", (-0.1,), dim=1)


def test_linear_time_priority():
    prio = PrioritySpec("linear_time", (0.3, 0.4), dim=1)
    assert prio.time_only
    assert prio.time_values([0.0, 0.5]).tolist() == [0.3, 0.3 + 0.4 * 0.5]
    bad = PrioritySpec("linear_time", (0.3, 2.0), dim=1)
    with pytest.raises(ProblemError):
        bad.value(0.9, np.zeros((1, 1)))  # 0.3 + 1.8 leaves [0, 1]


def test_logistic_priority_state_dependence():
    prio = PrioritySpec("logistic", (0.0, 0.0, 1.0), dim=1)
    assert not prio.time_only
    assert prio.value(0.0, np.zeros((1, 1))).tolist() == [0.5]
    with pytest.raises(ProblemError):
        prio.time_values([0.0])  # state required
    flat = PrioritySpec("logistic", (0.4, -0.2, 0.0), dim=1)
    assert flat.time_only


def test_logistic_priority_stays_in_unit_interval():
    rng = np.random.default_rng(seed)
    prio = PrioritySpec("logistic", (0.2, -0.1, 0.5), dim=1)
    for _ in range(20):
        vals = prio.value(rng.uniform(0, 1), rng.normal(0, 50, (500, 1)))
        assert vals.min() >= 0.0
        assert vals.max() <= 1.0


# one time-only parameter set per registered family; logistic is time-only when wx == 0
TIME_ONLY_PRIORITIES = {
    "constant": (0.3,),
    "linear_time": (0.1, 1.7),
    "logistic": (0.4, -2.5, 0.0),
}


@pytest.mark.parametrize("family", priority_family_names())
@pytest.mark.parametrize("d", [1, 3])
def test_every_priority_family_time_values_match_scalar(family, d):
    # the solvers tabulate a time-only p once per grid, so entry i must equal
    # value(times[i], X) bitwise at every node for every registered family
    params = TIME_ONLY_PRIORITIES[family][:2] + TIME_ONLY_PRIORITIES[family][2:] * d
    prio = PrioritySpec(family, params, dim=d)
    assert prio.time_only
    rng = np.random.default_rng(seed)
    times = np.concatenate([[0.5], np.sort(rng.uniform(0.0, 0.5, 40)), [0.0]])
    X = rng.normal(0.0, 5.0, (33, d))
    X[0] = -X[1]  # a node of each sign, so a product x * 0 yields both signed zeros
    table = prio.time_values(times)
    assert table.shape == times.shape
    for t, p in zip(times, table):
        assert np.array_equal(prio.value(float(t), X), np.full(X.shape[0], p))
    assert np.array_equal(prio.time_values(times[::-1]), table[::-1])


def test_time_values_range_check_names_first_bad_time_in_given_order():
    prio = PrioritySpec("linear_time", (0.3, 2.0), dim=1)  # leaves [0, 1] for t > 0.35
    times = np.linspace(0.0, 0.5, 11)
    with pytest.raises(ProblemError, match=r"^priority family 'linear_time' left \[0, 1\] at t=0\.4$"):
        prio.time_values(times)
    with pytest.raises(ProblemError, match=r"at t=0\.5$"):
        prio.time_values(times[::-1])
    assert np.array_equal(prio.time_values(times[:7]), 0.3 + 2.0 * times[:7])


def test_time_values_needs_a_time_only_priority():
    with pytest.raises(ProblemError, match="state-dependent"):
        PrioritySpec("logistic", (0.0, 0.0, 1.0), dim=1).time_values(np.zeros(3))


def test_problem_spec_validation():
    spec = bilinear_problem()
    assert spec.dim == 1
    assert spec.noise_dim == 1
    assert spec.start_state == (0.0,)
    with pytest.raises(ProblemError):
        bilinear_problem(horizon=-1.0)
    with pytest.raises(ProblemError):
        dataclasses.replace(spec, start_time=0.9)  # past the horizon
    with pytest.raises(ProblemError):
        dataclasses.replace(spec, start_state=(0.0, 0.0))


def test_validate_assumptions_benchmark():
    report = validate_assumptions(bilinear_problem(), box_radius=10.0, samples=2000, seed=seed)
    assert report.passed
    assert report.failures == ()
    assert report.growth_observed <= 6.0
    assert report.payoff_observed <= 1.0
    assert 0.0 <= report.priority_min <= report.priority_max <= 1.0


def test_validate_assumptions_constant_coefficients():
    report = validate_assumptions(singleton_problem(), samples=500, seed=seed)
    assert report.lipschitz_observed == 0.0
    assert report.passed


def test_validate_assumptions_reports_priority_outside_unit_interval():
    # p = 0.3 + 4 t reaches 2.3 at T = 0.5: reported as a failure, not raised
    spec = bilinear_problem(prio_family="linear_time", prio_params=(0.3, 4.0))
    report = validate_assumptions(spec, samples=2000, seed=seed)
    assert not report.passed
    assert report.failures == ("priority left [0, 1]",)
    assert 0.3 <= report.priority_min < 1.0 < report.priority_max <= 2.3


def _oracle_observed_constants(spec, box_radius, samples, seed):
    # the per-sample loop that validate_assumptions batches: one drift and
    # one diffusion call per sample and point, norms of single rows
    rng = np.random.default_rng(seed)
    n, d = samples, spec.dim
    t = rng.uniform(0.0, spec.horizon, n)
    X = rng.uniform(-box_radius, box_radius, (n, d))
    Y = rng.uniform(-box_radius, box_radius, (n, d))
    U = spec.actions_u.array[rng.integers(0, spec.actions_u.size, n)]
    V = spec.actions_v.array[rng.integers(0, spec.actions_v.size, n)]
    lip = growth = 0.0
    for i in range(n):
        row = slice(i, i + 1)
        bx, by = (spec.drift(t[i], Z[row], U[row], V[row])[0] for Z in (X, Y))
        sx, sy = (spec.diffusion(t[i], Z[row], U[row], V[row])[0] for Z in (X, Y))
        gap = np.linalg.norm(X[i] - Y[i])
        if gap > 1e-12:
            lip = max(lip, (np.linalg.norm(bx - by) + np.linalg.norm(sx - sy)) / gap)
        size = np.linalg.norm(bx) + np.linalg.norm(sx)
        growth = max(growth, size / (1.0 + np.linalg.norm(X[i])))
    return float(lip), float(growth)


@pytest.mark.parametrize("d, d_prime", [(1, 1), (2, 2), (2, 3), (3, 3)])
@pytest.mark.parametrize("family", coefficient_family_names())
def test_validate_assumptions_matches_per_sample_loop_bitwise(family, d, d_prime):
    # norm(A, axis=1) rounds some rows differently from the loop's norms; with
    # 2000 samples a few of these cases catch it in the observed maxima
    rng = np.random.default_rng(1)
    count = problem._COEFFICIENT_FAMILIES[family].param_count(d, d_prime)
    coeff = CoefficientSpec(family, rng.uniform(-2.0, 2.0, count), dim=d, noise_dim=d_prime)
    spec = problem.ProblemSpec(
        coefficients=coeff,
        payoff=PayoffSpec("cosine", (1.0, 1.0), d),
        priority=PrioritySpec("constant", (0.5,), d),
        actions_u=ActionSet(tuple(tuple(rng.uniform(-1.0, 1.0, 2)) for _ in range(3))),
        actions_v=ActionSet(tuple(tuple(rng.uniform(-1.0, 1.0, 2)) for _ in range(2))),
        horizon=0.5,
        start_state=(0.0,) * d,
    )
    report = validate_assumptions(spec, seed=1)
    lip, growth = _oracle_observed_constants(spec, 10.0, 2000, 1)
    assert report.lipschitz_observed == lip
    assert report.growth_observed == growth
