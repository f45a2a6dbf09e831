import numpy as np
import pytest

from helpers import bilinear_problem, singleton_problem
from isaacslab import problem
from isaacslab.hamiltonian import generator_tensor, hamiltonian_batch
from isaacslab.problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemSpec,
)

seed = 0

SPEC = bilinear_problem()


def one_state(t=0.0, x=0.0, grad=1.0, hess=0.0):
    """A batch of one state: t with X, grads and hesses of shapes (1, 1), (1, 1), (1, 1, 1)."""
    return t, np.array([[x]]), np.array([[grad]]), np.array([[[hess]]])


def generator_at(spec, **state):
    """The (ku, kv) generator table at one state."""
    return generator_tensor(spec, *one_state(**state))[..., 0]


def hamiltonians_at(spec, **state):
    """(lower, upper, mixed) at one state, as floats."""
    return tuple(float(h[0]) for h in hamiltonian_batch(spec, *one_state(**state)))


def test_generator_pure_diffusion():
    # b = 0, sigma = sqrt(2): L = hess
    spec = singleton_problem()
    assert abs(generator_at(spec, grad=0.7, hess=2.5)[0, 0] - 2.5) < 1e-15


def test_generator_bilinear_formula():
    # 4 u v grad + hess at (u, v) = (1, 1), the second action of each grid
    gen = generator_at(SPEC, grad=0.5, hess=3.0)
    assert abs(gen[1, 1] - (4 * 0.5 + 3.0)) < 1e-14


def test_generator_zero_derivatives():
    assert np.all(generator_at(SPEC, grad=0.0, hess=0.0) == 0.0)


def test_local_matrix_shape_matches_action_grids():
    assert generator_tensor(SPEC, *one_state()).shape == (2, 2, 1)


def test_hamiltonians_bilinear_example():
    lower, upper, _ = hamiltonians_at(SPEC, grad=1.0, hess=0.0)
    assert lower == -4.0
    assert upper == 4.0
    quarter = bilinear_problem(prio_params=(0.25,))
    assert hamiltonians_at(quarter, grad=1.0, hess=0.0)[2] == 0.25 * (-4.0) + 0.75 * 4.0


def test_singleton_actions_close_the_isaacs_gap():
    spec = singleton_problem(drift=0.3)
    gen = generator_at(spec, grad=2.0, hess=1.0)[0, 0]
    lower, upper, _ = hamiltonians_at(spec, grad=2.0, hess=1.0)
    assert lower == gen
    assert upper == gen


def test_zero_grad_degenerates_to_trace_term():
    # sigma is action-independent, so both sides collapse to the trace
    # term; s0*s0 costs one ulp, so this is not bitwise
    lower, upper, _ = hamiltonians_at(SPEC, grad=0.0, hess=1.5)
    assert abs(lower - 1.5) < 1e-12
    assert abs(upper - 1.5) < 1e-12
    assert lower == upper


def test_degenerate_priority_is_bitwise_one_sided():
    low_spec = bilinear_problem(prio_params=(1.0,))
    up_spec = bilinear_problem(prio_params=(0.0,))
    rng = np.random.default_rng(seed)
    for _ in range(25):
        state = dict(
            t=rng.uniform(0, 0.5), x=rng.normal(), grad=rng.normal(), hess=rng.normal()
        )
        lower, _, mixed = hamiltonians_at(low_spec, **state)
        assert mixed == lower
        _, upper, mixed = hamiltonians_at(up_spec, **state)
        assert mixed == upper


def test_sandwich_on_random_states():
    rng = np.random.default_rng(seed)
    spec = bilinear_problem(prio_family="logistic", prio_params=(0.1, 0.2, 0.3))
    n = 1000
    X = rng.normal(0.0, 3.0, (n, 1))
    G = rng.normal(0.0, 2.0, (n, 1))
    H = rng.normal(0.0, 2.0, (n, 1, 1))
    low, up, mixed = hamiltonian_batch(spec, 0.2, X, G, H)
    assert np.all(low <= mixed + 1e-12)
    assert np.all(mixed <= up + 1e-12)


def test_monotone_in_hess():
    # degenerate ellipticity: a PSD bump never lowers any Hamiltonian
    rng = np.random.default_rng(seed)
    for _ in range(200):
        g, h = rng.normal(), rng.normal()
        bump = rng.uniform(0.0, 2.0)
        before = hamiltonians_at(SPEC, grad=g, hess=h)
        after = hamiltonians_at(SPEC, grad=g, hess=h + bump)
        for a, b in zip(before, after):
            assert b >= a - 1e-12


def test_hess_additivity_for_action_independent_sigma():
    # H(grad, h1 + h2) = H(grad, h1) + 0.5 sigma^2 h2 when sigma ignores actions
    rng = np.random.default_rng(seed)
    for _ in range(50):
        g, h1, h2 = rng.normal(size=3)
        summed = hamiltonians_at(SPEC, grad=g, hess=h1 + h2)
        split = hamiltonians_at(SPEC, grad=g, hess=h1)
        for side in (0, 1):  # lower and upper
            assert abs(summed[side] - (split[side] + h2)) < 1e-12  # 0.5 * 2.0 * h2


# --- the batched generator against a per-action-pair oracle -------------------


def _oracle_generator_tensor(spec, t, X, grads, hesses):
    """generator_tensor written pair by pair, one drift/diffusion call per pair."""
    n = X.shape[0]
    ku, kv = spec.actions_u.size, spec.actions_v.size
    out = np.empty((ku, kv, n))
    for a in range(ku):
        U = np.broadcast_to(spec.actions_u.array[a], (n, spec.actions_u.dim))
        for b in range(kv):
            V = np.broadcast_to(spec.actions_v.array[b], (n, spec.actions_v.dim))
            bvec = spec.drift(t, X, U, V)
            sig = spec.diffusion(t, X, U, V)
            a2 = np.einsum("nik,njk->nij", sig, sig)
            out[a, b] = np.einsum("ni,ni->n", bvec, grads) + 0.5 * np.einsum(
                "nij,nij->n", a2, hesses
            )
    return out


def _coefficient_params(family, d, d_prime, rng):
    count = problem._COEFFICIENT_FAMILIES[family].param_count(d, d_prime)
    return tuple(float(c) for c in rng.normal(size=count))


def _random_batch(d, rng, n=9):
    X = rng.normal(0.0, 2.0, (n, d))
    G = rng.normal(size=(n, d))
    H = rng.normal(size=(n, d, d))
    return X, G, H + H.transpose(0, 2, 1)


def _generator_problem(family, d, d_prime, rng, u_values, v_values):
    return ProblemSpec(
        coefficients=CoefficientSpec(
            family, _coefficient_params(family, d, d_prime, rng), dim=d, noise_dim=d_prime
        ),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=d),
        priority=PrioritySpec("constant", (0.5,), dim=d),
        actions_u=ActionSet.from_values(u_values),
        actions_v=ActionSet.from_values(v_values),
        horizon=0.5,
        start_state=(0.0,) * d,
    )


@pytest.mark.parametrize("d_prime", [1, 2, 3])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("family", ["affine", "bilinear", "constant"])
def test_generator_tensor_matches_per_pair_oracle_bitwise(family, d, d_prime):
    rng = np.random.default_rng(100 * d + 10 * d_prime)
    # 3 x 2 actions, two-dimensional so bilinear's <u, v> sums two products
    u_values = ((-1.0, 0.5), (0.0, 1.0), (1.0, -0.3))
    v_values = ((-1.0, 0.2), (0.7, 1.0))
    spec = _generator_problem(family, d, d_prime, rng, u_values, v_values)
    X, G, H = _random_batch(d, rng)
    tens = generator_tensor(spec, 0.2, X, G, H)
    assert tens.shape == (3, 2, 9)
    assert np.array_equal(tens, _oracle_generator_tensor(spec, 0.2, X, G, H))
