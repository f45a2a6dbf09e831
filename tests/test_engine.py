import dataclasses
import warnings

import numpy as np
import pytest

from helpers import (
    SQRT2,
    bilinear_problem,
    one_sided_chains,
    ou_problem,
    ou_value,
    singleton_problem,
)
from isaacslab import engine, pde
from isaacslab.engine import (
    CoinSource,
    DeterministicMode,
    EngineError,
    GridTooCoarseError,
    HashFeedbackStrategyU,
    MarkovStrategyU,
    MarkovStrategyV,
    NoiseSource,
    RandomMode,
    build_lattice,
    dp_value_deterministic,
    dp_value_random,
    exploitability,
    perturbed_strategy,
    random_markov_strategy,
    simulate,
)
from isaacslab.pde import SpatialGrid
from isaacslab.problem import ActionSet, CoefficientSpec, PayoffSpec, PrioritySpec, ProblemSpec
from isaacslab.schedule import MarkSequence, Partition, SubGrid, make_marks, make_uniform_partition

seed = 0


def test_noise_source_replay():
    a = NoiseSource(3).increments(10, 2, 0.25)
    b = NoiseSource(3).increments(10, 2, 0.25)
    assert np.array_equal(a, b)
    src = NoiseSource(3)
    src.increments(10, 2, 0.25)
    assert src.draws == 20
    assert not np.array_equal(a, NoiseSource(4).increments(10, 2, 0.25))


def test_coin_source():
    a = CoinSource(5).uniforms(1000)
    assert np.array_equal(a, CoinSource(5).uniforms(1000))
    assert np.all((0.0 <= a) & (a < 1.0))
    src = CoinSource(5)
    src.uniforms(7)
    src.uniforms(4)
    assert src.draws == 11


@pytest.mark.parametrize("source", [NoiseSource, CoinSource])
def test_negative_seed_is_an_engine_error(source):
    with pytest.raises(EngineError, match="^seed must be non-negative, got -1$"):
        source(-1)
    assert source(0).seed == 0


def test_noise_increment_scaling():
    # increments are N(0, dt)
    draws = NoiseSource(1).increments(200_000, 1, 0.01)
    assert abs(float(np.var(draws)) - 0.01) < 3e-4
    assert abs(float(np.mean(draws))) < 3e-4


def test_noise_increments_are_the_generators_normal_bitwise():
    # numpy draws normal(0, s) as 0.0 + s z; increments scale standard normals
    # in place and add 0.0, which must be the same bits, call after call
    src, rng = NoiseSource(11), np.random.default_rng(11)
    draws = 0
    for dt in (0.25, 1e-6, 0.5 / 1600):
        for shape in ((7, 1), (10, 2), (1, 3)):
            got = src.increments(*shape, dt)
            want = rng.normal(0.0, np.sqrt(dt), size=shape)
            draws += shape[0] * shape[1]
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
            assert np.array_equal(np.signbit(got), np.signbit(want))
            assert src.draws == draws


def test_lattice_quadrature():
    prob = singleton_problem()
    part = make_uniform_partition(0.0, 0.5, 5)
    lat = build_lattice(prob, SpatialGrid(-8.0, 8.0, 161), part, quad_points=3)
    assert lat.quad_points == 3
    order = np.argsort(lat.quad_nodes)
    assert np.allclose(lat.quad_nodes[order], [-np.sqrt(3.0), 0.0, np.sqrt(3.0)], atol=1e-14)
    assert np.allclose(lat.quad_weights[order], [1 / 6, 2 / 3, 1 / 6], atol=1e-14)
    assert abs(float(lat.quad_weights.sum()) - 1.0) < 1e-14
    err_mean, err_var = lat.moment_errors(prob)
    assert err_mean < 1e-13
    assert err_var < 1e-13


def test_lattice_successor_moments():
    # b = 0, sigma = sqrt(2), dt = 0.01: mean x, variance 0.02 at every node
    prob = singleton_problem(drift=0.0, sigma=SQRT2)
    grid = SpatialGrid(-8.0, 8.0, 161)
    part = make_uniform_partition(0.0, 0.5, 50)
    lat = build_lattice(prob, grid, part)
    succ = lat.successors[0, :, 0, 0, :]
    mean = succ @ lat.quad_weights
    var = ((succ - mean[:, None]) ** 2) @ lat.quad_weights
    assert np.allclose(mean, grid.xs, atol=1e-14)
    assert np.allclose(var, 0.02, atol=1e-14)
    assert lat.max_protrusion > 0.0  # outermost nodes shoot past the edge


def test_lattice_zero_diffusion():
    prob = singleton_problem(drift=2.0, sigma=0.0)
    grid = SpatialGrid(-8.0, 8.0, 161)
    lat = build_lattice(prob, grid, make_uniform_partition(0.0, 0.5, 5))
    # one deterministic successor repeated across the quadrature points
    assert np.all(np.ptp(lat.successors, axis=-1) == 0.0)
    assert np.allclose(lat.successors[0, 0, 0, 0, :], -8.0 + 0.2, atol=1e-14)


def test_build_lattice_errors():
    prob = singleton_problem()
    grid = SpatialGrid(-8.0, 8.0, 161)
    with pytest.raises(EngineError):
        build_lattice(prob, grid, make_uniform_partition(0.0, 0.5, 5), quad_points=4)
    with pytest.raises(EngineError):
        build_lattice(prob, grid, make_uniform_partition(0.0, 0.4, 5))
    with pytest.raises(GridTooCoarseError):
        build_lattice(prob, SpatialGrid(-0.05, 0.05, 5), make_uniform_partition(0.0, 0.5, 2))


def test_one_step_matches_hand_enumeration():
    # single interval, 2x2 game at every node, blended at p = 0.25
    prob = bilinear_problem(prio_family="constant", prio_params=(0.25,), horizon=0.01)
    grid = SpatialGrid(-3.0, -0.2, 281)
    part = make_uniform_partition(0.0, 0.01, 1)
    lat = build_lattice(prob, grid, part)
    tables = dp_value_random(prob, part, lat)

    g = prob.payoff_values(grid.xs[:, None])
    f = np.empty((2, 2, grid.nodes))
    for a in range(2):
        for b in range(2):
            succ = lat.successors[0, :, a, b, :]
            f[a, b] = np.interp(succ, grid.xs, g) @ lat.quad_weights
    lower = np.max(np.min(f, axis=1), axis=0)
    upper = np.min(np.max(f, axis=0), axis=0)
    expect = 0.25 * lower + 0.75 * upper
    assert np.allclose(tables.value.values[0], expect, atol=1e-12)
    assert np.array_equal(tables.value.values[1], g)


def zero_noise_one_step():
    # s0 = 0, kappa = 4, dt = 0.01: displacement 0.04 is exactly four cells
    prob = bilinear_problem(s0=0.0, horizon=0.01)
    grid = SpatialGrid(-3.0, -0.2, 281)
    part = make_uniform_partition(0.0, 0.01, 1)
    return prob, grid, part, build_lattice(prob, grid, part)


def test_one_step_marks_zero_noise():
    # cos increases on [-3, -0.2]: the second mover drags the state its way
    prob, grid, part, lat = zero_noise_one_step()
    inner = slice(4, -4)
    ones = dp_value_deterministic(prob, part, MarkSequence((1,)), SubGrid((0, 1)), lat)
    zeros = dp_value_deterministic(prob, part, MarkSequence((0,)), SubGrid((0, 1)), lat)
    assert np.allclose(ones.value.values[0][inner], np.cos(grid.xs - 0.04)[inner], atol=1e-10)
    assert np.allclose(zeros.value.values[0][inner], np.cos(grid.xs + 0.04)[inner], atol=1e-10)


def test_one_step_random_blend_zero_noise():
    prob, grid, part, lat = zero_noise_one_step()
    prob = dataclasses.replace(
        prob, priority=dataclasses.replace(prob.priority, params=(0.3,))
    )
    tables = dp_value_random(prob, part, lat)
    inner = slice(4, -4)
    expect = 0.3 * np.cos(grid.xs - 0.04) + 0.7 * np.cos(grid.xs + 0.04)
    assert np.allclose(tables.value.values[0][inner], expect[inner], atol=1e-10)


@pytest.mark.parametrize("p, mark", [(1.0, 1), (0.0, 0)])
def test_degenerate_priority_matches_marks(p, mark):
    prob = bilinear_problem(prio_family="constant", prio_params=(p,))
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 20)
    lat = build_lattice(prob, grid, part)
    rand = dp_value_random(prob, part, lat)
    det = dp_value_deterministic(
        prob, part, MarkSequence((mark,) * 20), SubGrid((0, 5, 10, 15, 20)), lat
    )
    assert np.array_equal(rand.v_minus.values, det.v_minus.values)


def test_value_tables_ordering():
    prob = bilinear_problem(prio_family="linear_time", prio_params=(0.3, 0.4))
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 20)
    lattice = build_lattice(prob, grid, part)
    tables = dp_value_random(prob, part, lattice)
    assert tables.mode == "random"
    assert tables.v_plus is tables.v_minus
    # the p == 1 and p == 0 chains on the same lattice bracket the blend
    lower, upper = one_sided_chains(prob, part, lattice)
    mixed = tables.value.values
    assert np.all(lower <= mixed + 1e-12)
    assert np.all(mixed <= upper + 1e-12)
    window = np.abs(grid.xs) <= 2.0
    assert float(np.max(upper[:, window] - lower[:, window])) > 1e-3
    assert tables.max_order_violation <= 1e-9
    assert tables.value_at_start(0.3) == tables.value.value_at(0.0, 0.3)
    # saddle strategies cover every interval
    assert tables.strategy_u.starts[0] == 0
    assert tables.strategy_v.plain.shape[1] == grid.nodes


def test_single_controller_matches_pde():
    # v frozen to one action turns the game into a control problem; the
    # lattice value must approach the one-sided PDE solution
    prob = bilinear_problem()
    prob = dataclasses.replace(prob, actions_v=ActionSet.from_values((1.0,)))
    grid = SpatialGrid(-8.0, 8.0, 641)
    part = make_uniform_partition(0.0, 0.5, 100)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    field = pde.solve(prob, grid, dt=pde.cfl_max_dt(prob, grid), hamiltonian="mixed")
    window = np.abs(grid.xs) <= 2.0
    gap = np.max(np.abs(tables.value.values[0][window] - field.initial_slice[window]))
    assert gap < 5e-2


def test_simulate_zero_noise_singleton():
    prob = singleton_problem(drift=2.0, sigma=0.0, payoff=("cosine", (1.0, 1.0)))
    grid = SpatialGrid(-8.0, 8.0, 161)
    part = make_uniform_partition(0.0, 0.5, 4)
    su = random_markov_strategy("u", grid, part, 1, 1, seed)
    sv = random_markov_strategy("v", grid, part, 1, 1, seed)
    res = simulate(prob, part, RandomMode(CoinSource(2)), su, sv, 8, 3, NoiseSource(5))
    assert res.std_error == 0.0
    assert np.all(res.payoffs == res.payoffs[0])
    assert abs(res.mean - np.cos(prob.start_state[0] + 1.0)) < 1e-12


def test_forced_coins_match_marks():
    # p identically 1 forces heads; the coin stream is separate from the
    # noise stream, so the deterministic all-ones run is bitwise identical
    prob = bilinear_problem(prio_family="constant", prio_params=(1.0,))
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 10)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    su, sv = tables.strategy_u, tables.strategy_v
    rand = simulate(prob, part, RandomMode(CoinSource(4)), su, sv, 64, 2, NoiseSource(4))
    det = simulate(prob, part, DeterministicMode(MarkSequence((1,) * 10)), su, sv, 64, 2, NoiseSource(4))
    assert np.array_equal(rand.payoffs, det.payoffs)


@pytest.mark.parametrize(
    "family, params",
    # linear_time reaches p = 0 at t = 0, so the exact endpoint is taken
    [("constant", (0.3,)), ("linear_time", (0.0, 2.0)), ("logistic", (0.3, -1.0, 0.0))],
)
def test_time_only_priority_table_matches_per_node_path(monkeypatch, family, params):
    # a time-only p is tabulated once per partition; reading it per node and
    # per path, as a state-dependent p is read, must give the same bits
    prob = bilinear_problem(prio_family=family, prio_params=params)
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 10)
    lattice = build_lattice(prob, grid, part)

    def run():
        tables = dp_value_random(prob, part, lattice)
        play = simulate(prob, part, RandomMode(CoinSource(4)), tables.strategy_u,
                        tables.strategy_v, 256, 2, NoiseSource(5), record=8)
        seconds = np.array([r.who_second for r in play.records])
        return tables.value.values, play.payoffs, seconds

    tabulated = run()
    monkeypatch.setattr(PrioritySpec, "time_only", property(lambda self: False))
    per_node = run()
    for a, b in zip(tabulated, per_node):
        assert a.tobytes() == b.tobytes()


def test_simulate_replay():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 10)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    args = (prob, part)
    kw = dict(paths=128, substeps=2)
    a = simulate(*args, RandomMode(CoinSource(7)), tables.strategy_u, tables.strategy_v,
                 kw["paths"], kw["substeps"], NoiseSource(9))
    b = simulate(*args, RandomMode(CoinSource(7)), tables.strategy_u, tables.strategy_v,
                 kw["paths"], kw["substeps"], NoiseSource(9))
    c = simulate(*args, RandomMode(CoinSource(7)), tables.strategy_u, tables.strategy_v,
                 kw["paths"], kw["substeps"], NoiseSource(10))
    assert np.array_equal(a.payoffs, b.payoffs)
    assert a.mean == b.mean
    assert not np.array_equal(a.payoffs, c.payoffs)


def test_path_record_euler_audit():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 161)
    part = make_uniform_partition(0.0, 0.5, 4)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    substeps = 3
    res = simulate(
        prob, part, RandomMode(CoinSource(21)), tables.strategy_u, tables.strategy_v,
        6, substeps, NoiseSource(22), record=4,
    )
    assert len(res.records) == 4
    for rec in res.records:
        assert rec.states.shape == (5,)
        assert rec.substep_states.shape == (4 * substeps + 1,)
        assert np.array_equal(rec.who_second, rec.coins < 0.5)
        # replay the frozen-action Euler recursion from the audit trail
        x = rec.states[0]
        for k in range(4):
            dt_sub = float(part.steps[k]) / substeps
            U = prob.actions_u.array[[int(rec.u_actions[k])]]
            V = prob.actions_v.array[[int(rec.v_actions[k])]]
            for ss in range(substeps):
                t_sub = float(part.times[k]) + ss * dt_sub
                xx = np.array([x])
                b = float(prob.drift(t_sub, xx[:, None], U, V)[0, 0])
                sig = prob.diffusion(t_sub, xx[:, None], U, V)[0, 0, :]
                x = x + b * dt_sub + float(sig @ rec.noise[k, ss])
                assert abs(x - rec.substep_states[k * substeps + ss + 1]) < 1e-12
            assert abs(x - rec.states[k + 1]) < 1e-12
        assert abs(rec.payoff - float(prob.payoff_values(np.array([[x]]))[0])) < 1e-12


def test_exploitability_report_structure():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 10)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    report = exploitability(
        prob, part, "random", "u", tables.strategy_u, 7, 3,
        tables=tables, paths=200, substeps=1,
    )
    labels = [r.label for r in report.results]
    assert labels[0] == "dp_best_response"
    assert sorted(labels) == sorted(
        ["dp_best_response", "perturbed_0", "perturbed_1",
         "feedback_0", "feedback_1", "random_markov_0", "random_markov_1"]
    )
    assert report.worst.mean == min(r.mean for r in report.results)
    assert report.fixed_side == "u"


def test_exploitability_input_errors():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 10)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    with pytest.raises(EngineError):
        exploitability(prob, part, "random", "w", tables.strategy_u, 3, 1, tables=tables)
    with pytest.raises(EngineError):
        exploitability(prob, part, "deterministic", "u", tables.strategy_u, 3, 1, tables=tables)


def test_singleton_challenger_cannot_move_value():
    # one action per side: any challenger plays the same frozen game
    prob = singleton_problem(drift=0.5, sigma=1.0, payoff=("cosine", (1.0, 1.0)))
    grid = SpatialGrid(-8.0, 8.0, 161)
    part = make_uniform_partition(0.0, 0.5, 8)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    alt = random_markov_strategy("v", grid, part, 1, 1, 99)
    a = simulate(prob, part, RandomMode(CoinSource(1)), tables.strategy_u,
                 tables.strategy_v, 256, 2, NoiseSource(2))
    b = simulate(prob, part, RandomMode(CoinSource(1)), tables.strategy_u,
                 alt, 256, 2, NoiseSource(2))
    assert np.array_equal(a.payoffs, b.payoffs)


def test_strategy_builders_deterministic():
    grid = SpatialGrid(-6.0, 6.0, 31)
    part = make_uniform_partition(0.0, 0.5, 6)
    a = random_markov_strategy("u", grid, part, 2, 2, 11)
    b = random_markov_strategy("u", grid, part, 2, 2, 11)
    c = random_markov_strategy("u", grid, part, 2, 2, 12)
    assert np.array_equal(a.plain, b.plain) and np.array_equal(a.counter, b.counter)
    assert not (np.array_equal(a.plain, c.plain) and np.array_equal(a.counter, c.counter))
    pa = perturbed_strategy(a, 0.15, 5, 2)
    pb = perturbed_strategy(a, 0.15, 5, 2)
    assert isinstance(pa, MarkovStrategyU)
    assert np.array_equal(pa.plain, pb.plain) and np.array_equal(pa.counter, pb.counter)
    # a 15% flip changes some entries but not most
    changed = np.mean(pa.plain != a.plain)
    assert 0.0 < changed < 0.5


def test_markov_strategy_validation():
    grid = SpatialGrid(-1.0, 1.0, 5)
    with pytest.raises(EngineError):
        MarkovStrategyU(grid, (1, 2), np.zeros((2, 5), int), np.zeros((2, 5, 2), int))
    with pytest.raises(EngineError):
        MarkovStrategyU(grid, (0,), np.zeros((1, 4), int), np.zeros((1, 4, 2), int))
    with pytest.raises(EngineError):
        MarkovStrategyV(grid, (0,), np.zeros((1, 5), int), np.zeros((1, 5), int))
    with pytest.raises(EngineError):
        MarkovStrategyU(grid, (0,), -np.ones((1, 5), int), np.zeros((1, 5, 2), int))


def test_hash_feedback_uses_history():
    grid = SpatialGrid(-6.0, 6.0, 121)
    strat = HashFeedbackStrategyU(grid, 2, 9)
    nodes = np.arange(60)
    prev_a = np.full(60, 3)
    prev_b = np.full(60, 4)
    picks_a, counter_a = strat.moves(1, nodes, prev_a)
    picks_b, _ = strat.moves(1, nodes, prev_b)
    assert not np.array_equal(picks_a, picks_b)
    assert np.array_equal(picks_a, strat.moves(1, nodes, prev_a)[0])
    # no previous interval reads as last node 0
    assert np.array_equal(
        strat.moves(0, nodes, None)[0], strat.moves(0, nodes, np.zeros(60, int))[0]
    )
    # counter moves react to the opponent's action
    assert not np.array_equal(counter_a(np.zeros(60, int)), counter_a(np.ones(60, int)))


class _RecordingStrategy:
    """Plays action 0 everywhere and records what each moves call was handed."""

    def __init__(self, grid):
        self.grid = grid
        self.calls = []

    def moves(self, k, nodes, prev):
        self.calls.append((k, nodes.copy(), None if prev is None else prev.copy()))
        return np.zeros_like(nodes), np.zeros_like


def test_simulate_hands_strategies_the_previous_nodes():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 4)
    su, sv = _RecordingStrategy(grid), _RecordingStrategy(grid)
    paths = 16
    res = simulate(prob, part, RandomMode(CoinSource(3)), su, sv, paths, 2,
                   NoiseSource(4), record=paths)
    states = np.stack([rec.states for rec in res.records], axis=1)
    nodes_at = [grid.nearest_index(states[k]) for k in range(part.intervals)]
    assert not np.array_equal(nodes_at[0], nodes_at[-1])  # the paths do move
    for strat in (su, sv):
        assert [k for k, _, _ in strat.calls] == [0, 1, 2, 3]
        for k, nodes, prev in strat.calls:
            assert np.array_equal(nodes, nodes_at[k])
            if k == 0:
                assert prev is None
            else:
                assert np.array_equal(prev, nodes_at[k - 1])


# --- the vectorised lattice against a per-interval, per-action-pair oracle ------


def _oracle_successors(spec, grid, partition, quad_points=3):
    """build_lattice's successors written interval by interval and pair by pair."""
    zeta, _ = engine._gauss_hermite_unit(quad_points)
    xs = grid.xs
    n = xs.size
    ku, kv = spec.actions_u.size, spec.actions_v.size
    succ = np.empty((partition.intervals, n, ku, kv, quad_points))
    for k in range(partition.intervals):
        t = float(partition.times[k])
        dt = float(partition.steps[k])
        for a in range(ku):
            U = np.broadcast_to(spec.actions_u.array[a], (n, spec.actions_u.dim))
            for c in range(kv):
                V = np.broadcast_to(spec.actions_v.array[c], (n, spec.actions_v.dim))
                b = spec.drift(t, xs[:, None], U, V)[:, 0]
                sig = spec.diffusion(t, xs[:, None], U, V)[:, 0, :]
                s_eff = np.sqrt(np.sum(sig * sig, axis=1))
                succ[k, :, a, c, :] = (
                    xs[:, None] + b[:, None] * dt + s_eff[:, None] * np.sqrt(dt) * zeta
                )
    return succ


def _oracle_moment_errors(spec, lattice):
    """TransitionModel.moment_errors written interval by interval and pair by pair."""
    xs = lattice.grid.xs
    n = xs.size
    w = lattice.quad_weights
    err_mean = err_var = 0.0
    for k in range(lattice.partition.intervals):
        t = float(lattice.partition.times[k])
        dt = float(lattice.partition.steps[k])
        for a in range(spec.actions_u.size):
            U = np.broadcast_to(spec.actions_u.array[a], (n, spec.actions_u.dim))
            for c in range(spec.actions_v.size):
                V = np.broadcast_to(spec.actions_v.array[c], (n, spec.actions_v.dim))
                b = spec.drift(t, xs[:, None], U, V)[:, 0]
                sig = spec.diffusion(t, xs[:, None], U, V)[:, 0, :]
                s2 = np.sum(sig * sig, axis=1)
                succ = lattice.successors[k, :, a, c, :]
                mean = succ @ w
                var = ((succ - mean[:, None]) ** 2) @ w
                err_mean = max(err_mean, float(np.max(np.abs(mean - (xs + b * dt)))))
                err_var = max(err_var, float(np.max(np.abs(var - s2 * dt))))
    return err_mean, err_var


# sigma has d' = 3 columns in every case, so a swapped reduction of
# sigma sigma^T would round differently
LATTICE_COEFFICIENTS = {
    "constant": ((0.3, 1.0, 0.7, 0.2), 3),
    "affine": ((0.2, -0.4, 1.2, 0.3, 0.9), 3),
    "bilinear": ((4.0, SQRT2), 1),
}


def _lattice_problem(
    coef, u_values=(-1.0, 1.0), v_values=(-1.0, 1.0), noise_dim=None,
    priority=("constant", (0.5,)),
):
    params, d_prime = LATTICE_COEFFICIENTS[coef]
    return ProblemSpec(
        coefficients=CoefficientSpec(coef, params, dim=1, noise_dim=noise_dim or d_prime),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec(*priority, dim=1),
        actions_u=ActionSet.from_values(u_values),
        actions_v=ActionSet.from_values(v_values),
        horizon=0.5,
    )


def _assert_lattice_matches_oracle(spec):
    grid = SpatialGrid(-6.0, 6.0, 81)
    # unequal steps, so a step read from the wrong interval shows
    part = Partition(np.array([0.0, 0.05, 0.12, 0.3, 0.5]))
    lattice = build_lattice(spec, grid, part)
    assert np.array_equal(lattice.successors, _oracle_successors(spec, grid, part))
    assert lattice.moment_errors(spec) == _oracle_moment_errors(spec, lattice)


@pytest.mark.parametrize("actions", [((-1.0, 1.0), (-1.0, 1.0)), ((-1.0, 0.0, 1.0), (-1.0, 1.0))])
@pytest.mark.parametrize("coef", sorted(LATTICE_COEFFICIENTS))
def test_lattice_matches_per_pair_oracle_bitwise(coef, actions):
    _assert_lattice_matches_oracle(_lattice_problem(coef, *actions))


def test_lattice_matches_oracle_with_three_noise_columns_on_bilinear():
    # bilinear sigma is diagonal, so its d' = 3 table has two zero columns
    _assert_lattice_matches_oracle(_lattice_problem("bilinear", noise_dim=3))


# --- successor slabs: one per distinct step --------------------------------------------


def _assert_expect_matches_successors(lattice, values):
    """expect(k, v) is interpolation of successors[k] followed by @ w, bit for bit.

    The successors are read in their (nodes, ku, kv, q) layout, so the
    reference contracts one small matrix per (node, u) where ``expect``
    contracts one per action pair; for kv >= 2 both are BLAS gemv calls
    on rows of q entries, which round alike.
    """
    xs, w = lattice.grid.xs, lattice.quad_weights
    for k, succ in enumerate(lattice.successors):
        want = np.interp(succ.ravel(), xs, values).reshape(succ.shape) @ w
        assert lattice.expect(k, values).tobytes() == want.transpose(1, 2, 0).tobytes()


def test_lattice_stores_one_slab_per_distinct_step():
    # a linspace partition of 1600 intervals has 12 distinct float steps
    spec = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 641)
    part = make_uniform_partition(0.0, 0.5, 1600)
    lattice = build_lattice(spec, grid, part)
    slab_bytes = grid.nodes * 2 * 2 * lattice.quad_points * 8
    assert lattice.slabs.shape == (12, 2, 2, grid.nodes, lattice.quad_points)
    assert lattice.slabs.nbytes <= 12 * slab_bytes
    assert lattice.slab_of.shape == (part.intervals,)
    assert np.array_equal(lattice.successors, _oracle_successors(spec, grid, part))
    _assert_expect_matches_successors(lattice, np.cos(grid.xs))


def test_one_by_one_expect_is_within_four_ulps_of_successors():
    # kv = 1: expect contracts the (nodes, q) successors of the one action
    # pair with one gemv, where @ on the (nodes, 1, 1, q) view takes a dot
    # per node, so the two may round differently in the last bits.  Values
    # of both signs cancel, so the bound scales with the sum of |terms|.
    spec = singleton_problem()
    grid = SpatialGrid(-6.0, 6.0, 641)
    lattice = build_lattice(spec, grid, make_uniform_partition(0.0, 0.5, 4))
    values = np.random.default_rng(3).normal(size=grid.nodes)
    xs, w = grid.xs, lattice.quad_weights
    for k, succ in enumerate(lattice.successors):
        contin = np.interp(succ.ravel(), xs, values).reshape(succ.shape)
        want = (contin @ w).transpose(1, 2, 0)
        scale = (np.abs(contin) @ w).transpose(1, 2, 0)
        got = lattice.expect(k, values)
        assert got.shape == want.shape == (1, 1, grid.nodes)
        assert np.all(np.abs(got - want) <= 4.0 * np.spacing(scale))


@pytest.mark.parametrize("times, slab_of", [
    # distinct steps, not in increasing order
    ((0.0, 0.2, 0.25, 0.37, 0.5), [3, 0, 1, 2]),
    # exact dyadic steps, the first repeated by the last
    ((0.0, 0.125, 0.375, 0.5), [0, 1, 0]),
])
def test_lattice_slab_of_maps_each_interval_to_its_step(times, slab_of):
    spec = _lattice_problem("affine", (-1.0, 0.0, 1.0))
    grid = SpatialGrid(-6.0, 6.0, 81)
    part = Partition(np.array(times))
    lattice = build_lattice(spec, grid, part)
    assert lattice.slab_of.tolist() == slab_of
    assert lattice.slabs.shape == (max(slab_of) + 1, 3, 2, grid.nodes, 3)
    assert np.array_equal(lattice.successors, _oracle_successors(spec, grid, part))
    assert lattice.moment_errors(spec) == _oracle_moment_errors(spec, lattice)
    _assert_expect_matches_successors(lattice, np.sin(grid.xs) + 0.1 * grid.xs)
    # a slab stands for several intervals, so it cannot be written through
    with pytest.raises(ValueError):
        lattice.slabs[0, 0, 0, 0, 0] = 0.0


def _oracle_sweep(spec, lattice, node_rule, starts):
    """The backward sweep written with axis reductions and argmax/argmin."""
    grid, n = lattice.grid, lattice.partition.intervals
    ku, kv = spec.actions_u.size, spec.actions_v.size
    values = np.empty((n + 1, grid.nodes))
    values[n] = spec.payoff_values(grid.xs[:, None])
    u_plain = np.zeros((len(starts), grid.nodes), dtype=int)
    u_counter = np.zeros((len(starts), grid.nodes, kv), dtype=int)
    v_plain = np.zeros((len(starts), grid.nodes), dtype=int)
    v_counter = np.zeros((len(starts), grid.nodes, ku), dtype=int)
    for k in range(n - 1, -1, -1):
        # expect is laid out (ku, kv, nodes); the oracle reads it as (nodes, ku, kv)
        f = lattice.expect(k, values[k + 1]).transpose(2, 0, 1)
        row_floor = f.min(axis=2)
        lower = row_floor.max(axis=1)
        col_ceil = f.max(axis=1)
        upper = col_ceil.min(axis=1)
        values[k] = node_rule(k, lower, upper)
        if k in starts:
            r = starts.index(k)
            u_plain[r] = row_floor.argmax(axis=1)
            u_counter[r] = f.argmax(axis=1)
            v_plain[r] = col_ceil.argmin(axis=1)
            v_counter[r] = f.argmin(axis=2)
    return values, u_plain, u_counter, v_plain, v_counter


def _sweep_problems():
    return {
        # payoff and successors depend on u v alone, so diagonal pairs tie bitwise
        "bilinear_2x2": bilinear_problem(prio_family="linear_time", prio_params=(0.2, 1.0)),
        "affine_3x2": _lattice_problem("affine", (-1.0, 0.0, 1.0)),
        "singleton_1x1": singleton_problem(),
    }


@pytest.mark.parametrize("case", sorted(_sweep_problems()))
def test_dp_sweeps_match_reduction_oracle_bitwise(case):
    from isaacslab.static_game import mix

    spec = _sweep_problems()[case]
    grid = SpatialGrid(-6.0, 6.0, 81)
    part = make_uniform_partition(0.0, 0.5, 12)
    lattice = build_lattice(spec, grid, part)
    xs = grid.xs[:, None]

    def coin(k, lower, upper):
        return mix(spec.priority_values(float(part.times[k]), xs), lower, upper)

    marks, subgrid = make_marks(part, spec.priority, 3)

    def marked(k, lower, upper):
        return lower if marks.array[k] == 1 else upper

    runs = [
        (dp_value_random(spec, part, lattice), coin, tuple(range(part.intervals))),
        (dp_value_deterministic(spec, part, marks, subgrid, lattice), marked,
         tuple(subgrid.indices[:-1])),
    ]
    for tables, node_rule, starts in runs:
        want = _oracle_sweep(spec, lattice, node_rule, starts)
        got = (tables.value.values, tables.strategy_u.plain, tables.strategy_u.counter,
               tables.strategy_v.plain, tables.strategy_v.counter)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()
        assert tables.max_order_violation == 0.0



@pytest.mark.parametrize("bad", ["nan", "above"])
def test_dp_raises_blowup_on_a_continuation_outside_the_terminal_bounds(monkeypatch, bad):
    # the lattice's one-step weights are convex, so the DP stays inside the
    # terminal data; a continuation at one node that is NaN, or 1.0 above the
    # terminal max, must stop the sweep at the shared bounds check
    spec = _sweep_problems()["bilinear_2x2"]
    grid = SpatialGrid(-6.0, 6.0, 81)
    part = make_uniform_partition(0.0, 0.5, 12)
    lattice = build_lattice(spec, grid, part)
    top = float(spec.payoff_values(grid.xs[:, None]).max())
    expect = engine.TransitionModel.expect

    def bad_expect(self, k, values):
        f = expect(self, k, values)
        if k == 6:
            f[..., 40] = np.nan if bad == "nan" else top + 1.0
        return f

    monkeypatch.setattr(engine.TransitionModel, "expect", bad_expect)
    with pytest.raises(pde.BlowupError, match="left the terminal bounds"):
        dp_value_random(spec, part, lattice)


@pytest.mark.parametrize("quad_points", [3, 5, 7])
def test_dp_of_a_large_constant_payoff_passes_the_bounds_check(quad_points):
    # the quadrature weights sum to 1 only up to rounding, so the expectation
    # of a constant c may land an ulp (1.2e-7 at c = 1e9) off c at every
    # interval: past an absolute 1e-9 slack, far inside 1e-9 of max|g|
    c = 1e9 + 0.7
    spec = bilinear_problem(payoff=("constant", (c,)))
    grid = SpatialGrid(-6.0, 6.0, 81)
    part = make_uniform_partition(0.0, 0.5, 12)
    tables = dp_value_random(spec, part, build_lattice(spec, grid, part, quad_points))
    assert np.max(np.abs(tables.value.values - c)) <= 1e-9 * c

@pytest.mark.parametrize("gap, recorded", [(0.25, 0.25), (np.nan, 0.0)])
def test_max_order_violation_records_a_planted_violation(monkeypatch, gap, recorded):
    # lower <= upper holds bitwise in real local games, so the field reads 0.0
    # there.  A lower value planted gap above the upper one at one node of one
    # interval must be recorded exactly, and a NaN, never greater, not at all.
    # The interval's mark is 0, so its values take the upper side and stay finite
    spec = _sweep_problems()["bilinear_2x2"]
    grid = SpatialGrid(-6.0, 6.0, 81)
    part = make_uniform_partition(0.0, 0.5, 12)
    lattice = build_lattice(spec, grid, part)
    marks, subgrid = make_marks(part, spec.priority, 3)
    starts = subgrid.indices[:-1]
    # local_values serves the intervals that extract no strategy row, in sweep order
    plain = [k for k in range(part.intervals - 1, -1, -1) if k not in starts]
    target = next(i for i, k in enumerate(plain) if marks.array[k] == 0)
    local_values = pde.local_values
    calls = []

    def planted(f):
        lower, upper = local_values(f)
        if len(calls) == target:
            upper[40] = 0.5
            lower[40] = 0.5 + gap
        calls.append(f)
        return lower, upper

    monkeypatch.setattr(pde, "local_values", planted)
    tables = dp_value_deterministic(spec, part, marks, subgrid, lattice)
    assert len(calls) == len(plain)
    assert tables.max_order_violation == recorded

def test_simulation_tracks_dp_value():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 241)
    part = make_uniform_partition(0.0, 0.5, 25)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    v0 = tables.value_at_start(prob.start_state[0])
    res = simulate(
        prob, part, RandomMode(CoinSource(21)), tables.strategy_u, tables.strategy_v,
        20_000, 2, NoiseSource(22),
    )
    assert abs(res.mean - v0) <= 3.0 * res.std_error


# --- lockstep roster on common random numbers ---------------------------------------


def _oracle_mix_hash(*arrays):
    """The full-array mix that hashed seed and interval as per-path arrays."""
    acc = np.zeros_like(arrays[0], dtype=np.uint64)
    for arr in arrays:
        acc = acc + arr.astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)
        acc = (acc ^ (acc >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        acc = (acc ^ (acc >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        acc = acc ^ (acc >> np.uint64(31))
    return acc


@pytest.mark.parametrize("seed_value", [0, 9, -12345, 2**40 + 7, 2**63 - 1, -(2**63)])
def test_hash_feedback_prefix_matches_full_array_mix(seed_value):
    grid = SpatialGrid(-6.0, 6.0, 121)
    nodes = np.arange(121)
    prev = nodes[::-1].copy()
    opp = nodes % 3
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        for n_actions in (2, 3, 7):
            strat = HashFeedbackStrategyU(grid, n_actions, seed_value)
            for k in (0, 1, 99, 1599):
                seed_arr = np.full_like(nodes, seed_value)
                k_arr = np.full_like(nodes, k)
                last = np.zeros_like(nodes) if k == 0 else prev
                want_plain = _oracle_mix_hash(seed_arr, k_arr, nodes, last) % np.uint64(n_actions)
                want_counter = _oracle_mix_hash(seed_arr, k_arr, nodes, last, opp) % np.uint64(
                    n_actions
                )
                got_plain, counter = strat.moves(k, nodes, None if k == 0 else prev)
                got_counter = counter(opp)
                assert got_plain.tobytes() == want_plain.astype(int).tobytes()
                assert got_counter.tobytes() == want_counter.astype(int).tobytes()


def test_counter_maps_are_pure_functions_of_their_moves_call():
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 6)
    nodes = np.arange(121)
    prev = nodes[::-1].copy()
    opp = nodes % 2
    hashed = _oracle_mix_hash(np.full(121, 17), np.full(121, 4), nodes, prev, opp) % np.uint64(3)
    table = random_markov_strategy("v", grid, part, 3, 2, 5)
    cases = [
        (HashFeedbackStrategyU(grid, 3, 17), hashed.astype(np.intp)),
        (table, table.counter[4, nodes, opp].astype(np.intp)),
    ]
    for strat, want in cases:
        _, counter = strat.moves(4, nodes, prev)
        assert counter(opp).tobytes() == want.tobytes()
        assert counter(opp).tobytes() == want.tobytes()
        # other replies, and a moves call at another interval on other arrays
        counter(1 - opp)
        strat.moves(5, nodes[::-1].copy(), nodes.copy())
        assert counter(opp).tobytes() == want.tobytes()


def test_mix_hash_in_place_matches_oracle():
    rng = np.random.default_rng(seed)
    info = np.iinfo(np.int64)
    arrays = [rng.integers(info.min, info.max, 20_000, endpoint=True) for _ in range(2)]
    arrays[0][:2] = info.min, info.max
    arrays.append(rng.integers(-50, 50, 20_000).astype(np.int32))
    lead = np.full(20_000, -7)
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        acc = np.zeros(20_000, dtype=np.uint64)
        tmp = np.empty_like(acc)
        for arr in arrays:
            assert engine._mix_into(acc, arr, tmp) is acc
        assert acc.dtype == np.uint64 and acc.tobytes() == _oracle_mix_hash(*arrays).tobytes()
        # an int mixes as an array of it would, by its two's complement bits
        acc = np.zeros(20_000, dtype=np.uint64)
        engine._mix_into(acc, -7, tmp)
        engine._mix_into(acc, arrays[0], tmp)
        assert acc.tobytes() == _oracle_mix_hash(lead, arrays[0]).tobytes()


def test_remainder_is_the_uint64_modulo_bitwise():
    rng = np.random.default_rng(seed)
    edges = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    acc = np.concatenate([edges, rng.integers(0, 2**64 - 1, 20_000, dtype=np.uint64,
                                              endpoint=True)])
    before = acc.copy()
    out = np.empty_like(acc)
    with np.errstate(all="raise"):
        for n in (1, 2, 3, 4, 5, 7, 8, 255):
            want = (acc % np.uint64(n)).astype(np.intp)
            got = engine._remainder(acc, np.uint64(n), out)
            assert got.dtype == np.intp and np.shares_memory(got, out)
            assert got.tobytes() == want.tobytes()
            assert acc.tobytes() == before.tobytes()


def test_perturbed_strategy_tries_an_action_the_base_never_plays():
    grid = SpatialGrid(-6.0, 6.0, 31)
    part = make_uniform_partition(0.0, 0.5, 6)
    base = random_markov_strategy("v", grid, part, 2, 2, 4)  # actions {0, 1} only
    flipped = perturbed_strategy(base, 0.5, 8, 3)
    assert flipped.plain.max() == 2 and flipped.counter.max() == 2
    assert np.array_equal(np.unique(flipped.plain), [0, 1, 2])
    with pytest.raises(EngineError):
        perturbed_strategy(base, 0.5, 8, 1)


def _oracle_perturbed(base, flip_fraction, seed, n_own):
    """The perturbed tables drawn and stored as int64."""
    rng = np.random.default_rng(seed)
    plain = base.plain.astype(np.int64)
    counter = base.counter.astype(np.int64)
    mask_p = rng.random(plain.shape) < flip_fraction
    mask_c = rng.random(counter.shape) < flip_fraction
    plain[mask_p] = rng.integers(0, n_own, size=int(mask_p.sum()))
    counter[mask_c] = rng.integers(0, n_own, size=int(mask_c.sum()))
    return plain, counter


def test_challenger_tables_are_compact_and_value_for_value():
    grid = SpatialGrid(-6.0, 6.0, 31)
    part = make_uniform_partition(0.0, 0.5, 6)
    rng = np.random.default_rng(11)
    wide_plain = rng.integers(0, 3, size=(part.intervals, grid.nodes))
    wide_counter = rng.integers(0, 3, size=(part.intervals, grid.nodes, 2))
    rand = random_markov_strategy("u", grid, part, 3, 2, 11)
    assert rand.plain.dtype == rand.counter.dtype == np.uint8
    assert np.array_equal(rand.plain, wide_plain) and np.array_equal(rand.counter, wide_counter)
    assert 8 * rand.plain.nbytes <= wide_plain.nbytes
    assert 8 * rand.counter.nbytes <= wide_counter.nbytes
    # a perturbed copy of an int64 saddle table is as compact
    prob = bilinear_problem()
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    saddle = tables.strategy_v
    assert saddle.plain.dtype == saddle.counter.dtype == np.int64
    near = perturbed_strategy(saddle, 0.15, 5, 2)
    assert near.plain.dtype == near.counter.dtype == np.uint8
    assert 8 * near.counter.nbytes <= saddle.counter.nbytes
    # 300 actions need uint16; the base plays {0, 1} and no draw may wrap
    base = random_markov_strategy("v", grid, part, 2, 2, 4)
    many = perturbed_strategy(base, 0.9, 8, 300)
    want_plain, want_counter = _oracle_perturbed(base, 0.9, 8, 300)
    assert many.plain.dtype == many.counter.dtype == np.uint16
    assert np.array_equal(many.plain, want_plain) and np.array_equal(many.counter, want_counter)
    assert many.counter.max() > 255 and max(many.plain.max(), many.counter.max()) <= 299
    # the accessors hand out np.intp, so callers never do index arithmetic in uint8
    nodes = np.arange(grid.nodes)
    for strat in (rand, near, many, saddle):
        plain = strat.moves(0, nodes, None)[0]
        assert plain.dtype == np.intp
        assert np.array_equal(plain, strat.plain[0])
        opp = nodes % strat.counter.shape[2]
        reply = strat.moves(2, nodes, None)[1](opp)
        assert reply.dtype == np.intp
        assert np.array_equal(reply, strat.counter[2, nodes, opp])
    # a table keeps the integer dtype it is given
    kept = MarkovStrategyU(grid, (0,), np.zeros((1, grid.nodes), np.uint8),
                           np.zeros((1, grid.nodes, 2), np.uint16))
    assert kept.plain.dtype == np.uint8 and kept.counter.dtype == np.uint16


def test_exploitability_perturbs_over_the_sides_action_count(monkeypatch):
    # v has three actions; the perturbed challengers must draw from all three
    prob = ProblemSpec(
        coefficients=CoefficientSpec("bilinear", (4.0, SQRT2), dim=1, noise_dim=1),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec("constant", (0.5,), dim=1),
        actions_u=ActionSet.from_values((-1.0, 1.0)),
        actions_v=ActionSet.from_values((-1.0, 0.0, 1.0)),
        horizon=0.5,
    )
    grid = SpatialGrid(-6.0, 6.0, 61)
    part = make_uniform_partition(0.0, 0.5, 5)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    seen = []
    real = engine.perturbed_strategy

    def spy(base, flip_fraction, seed, n_own):
        seen.append(n_own)
        return real(base, flip_fraction, seed, n_own)

    monkeypatch.setattr(engine, "perturbed_strategy", spy)
    exploitability(prob, part, "random", "u", tables.strategy_u, 7, 2,
                   tables=tables, paths=50, substeps=1)
    exploitability(prob, part, "random", "v", tables.strategy_v, 7, 2,
                   tables=tables, paths=50, substeps=1)
    assert seen == [3, 3, 2, 2]


def _roster_cases():
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 10)
    time_only = bilinear_problem()
    logistic = bilinear_problem(prio_family="logistic", prio_params=(0.3, -1.0, 0.8))
    marks, subgrid = make_marks(part, time_only.priority, 2)
    return {
        "time_only": (time_only, grid, part, None, None),
        "logistic": (logistic, grid, part, None, None),
        "marks": (time_only, grid, part, marks, subgrid),
    }


def _roster_tables(case):
    prob, grid, part, marks, subgrid = _roster_cases()[case]
    lattice = build_lattice(prob, grid, part)
    if marks is None:
        return prob, part, marks, dp_value_random(prob, part, lattice)
    return prob, part, marks, dp_value_deterministic(prob, part, marks, subgrid, lattice)


@pytest.mark.parametrize("case", ["time_only", "logistic", "marks"])
def test_roster_challengers_equal_solo_simulate_on_common_seeds(case):
    prob, part, marks, tables = _roster_tables(case)
    roster_seed, paths, substeps = 3, 300, 2
    for side in ("u", "v"):
        frozen = tables.strategy_u if side == "u" else tables.strategy_v
        report = exploitability(
            prob, part, "deterministic" if marks else "random", side, frozen, 10,
            roster_seed, tables=tables, marks=marks, paths=paths, substeps=substeps,
        )
        roster = engine._roster(prob, part, "v" if side == "u" else "u", 10, roster_seed, tables)
        assert [r.label for r in report.results] == [label for label, _ in roster]
        for got, (_, build) in zip(report.results, roster):
            challenger = build()
            mode = DeterministicMode(marks) if marks else RandomMode(CoinSource(roster_seed * 7000))
            pair = (frozen, challenger) if side == "u" else (challenger, frozen)
            solo = simulate(prob, part, mode, *pair, paths, substeps,
                            NoiseSource(roster_seed * 9000))
            assert (got.mean, got.std_error) == (solo.mean, solo.std_error)


@pytest.mark.parametrize("case", ["time_only", "logistic", "marks"])
def test_roster_results_ignore_the_pass_size(monkeypatch, case):
    prob, part, marks, tables = _roster_tables(case)
    paths = 200

    def roster():
        return [
            exploitability(
                prob, part, "deterministic" if marks else "random", side,
                tables.strategy_u if side == "u" else tables.strategy_v, 10, 5,
                tables=tables, marks=marks, paths=paths, substeps=2,
            ).results
            for side in ("u", "v")
        ]

    default = roster()
    monkeypatch.setattr(engine, "_PASS_STATES", paths)  # one pair per pass
    one_each = roster()
    monkeypatch.setattr(engine, "_PASS_STATES", 10 * paths)  # the whole roster at once
    all_at_once = roster()
    assert one_each == default == all_at_once


def test_lockstep_pass_draws_each_shared_block_once():
    prob = bilinear_problem(prio_family="logistic", prio_params=(0.3, -1.0, 0.8))
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = make_uniform_partition(0.0, 0.5, 10)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    challengers = [random_markov_strategy("v", grid, part, 2, 2, s) for s in range(3)]
    paths, substeps = 64, 3
    coins, noise = CoinSource(1), NoiseSource(2)
    plays = engine._play(prob, part, RandomMode(coins),
                         [(tables.strategy_u, c) for c in challengers],
                         paths, substeps, noise, 0)
    assert len(plays) == 3
    assert coins.draws == part.intervals * paths
    # the bilinear family moves once per interval, on one block for all three pairs
    assert noise.draws == part.intervals * paths * prob.noise_dim


def test_exploitability_draws_each_coin_and_noise_block_once(monkeypatch):
    # 16 challengers at 20k paths play in one pass: every coin and noise block
    # is drawn once for the whole roster, not once per pass
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 61)
    part = make_uniform_partition(0.0, 0.5, 2)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    made = []

    class SpyCoins(CoinSource):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    class SpyNoise(NoiseSource):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    monkeypatch.setattr(engine, "CoinSource", SpyCoins)
    monkeypatch.setattr(engine, "NoiseSource", SpyNoise)
    paths, substeps = 20_000, 1
    report = exploitability(prob, part, "random", "u", tables.strategy_u, 16, 3,
                            tables=tables, paths=paths, substeps=substeps)
    assert len(report.results) == 16
    coins = sum(s.draws for s in made if isinstance(s, SpyCoins))
    noise = sum(s.draws for s in made if isinstance(s, SpyNoise))
    assert coins == part.intervals * paths
    assert noise == part.intervals * substeps * paths * prob.noise_dim


# --- forward play against the per-sub-step oracle -------------------------------------


def _oracle_actions(strat, k, nodes, prev, opp=None):
    """A Markov table's actions by two-index gathers; other strategies answer by their moves."""
    if isinstance(strat, engine._MarkovTable):
        row = strat._row(k)
        return strat.plain[row, nodes] if opp is None else strat.counter[row, nodes, opp]
    plain, counter = strat.moves(k, nodes, prev)
    return plain if opp is None else counter(opp)


def _oracle_play(spec, part, marks, strat_u, strat_v, paths, substeps, coin_seed, noise_seed,
                 record=None):
    """One pair played with drift and diffusion evaluated on every interval.

    Each path moves once per interval by the family's interval law
    X' = a X + c b0 + s sigma dW, with b0 and sigma evaluated at X = 0 for
    the chosen actions.  The trail splits dW by a Brownian bridge on standard
    normals from ``default_rng([noise_seed, 1])``; its inner points step by
    ((a - 1) X + c b0) / S and s sigma part_s from the interval's first point
    X, and it ends on the path's own state.  Returns the payoffs and, for the
    first ``record`` paths (all by default), the trail's states (one row per
    point) and its noise parts (one block per part).
    """
    record = paths if record is None else record
    coins, noise = CoinSource(coin_seed), NoiseSource(noise_seed)
    bridge = np.random.default_rng([noise_seed, 1])
    x = np.full(paths, spec.start_state[0])
    zero = np.zeros((paths, 1))
    states, blocks = [x[:record]], []
    prev = None
    for k in range(part.intervals):
        t_prev = float(part.times[k])
        h = float(part.steps[k])
        nodes = strat_u.grid.nearest_index(x)
        if marks is None:
            heads = coins.uniforms(paths) < spec.priority_values(t_prev, x[:, None])
        else:
            heads = np.full(paths, bool(marks.array[k]))
        u_plain = _oracle_actions(strat_u, k, nodes, prev)
        v_plain = _oracle_actions(strat_v, k, nodes, prev)
        v_resp = _oracle_actions(strat_v, k, nodes, prev, u_plain)
        u_resp = _oracle_actions(strat_u, k, nodes, prev, v_plain)
        U = spec.actions_u.array[np.where(heads, u_plain, u_resp)]
        V = spec.actions_v.array[np.where(heads, v_resp, v_plain)]
        prev = nodes
        a, c, s = spec.coefficients.interval_law(h)
        dW = noise.increments(paths, spec.noise_dim, h)
        cb = spec.drift(t_prev, zero, U, V)[:, 0] * c
        sig = spec.diffusion(t_prev, zero, U, V)[:, 0, :] * s
        z = bridge.standard_normal((substeps, record, spec.noise_dim))
        parts = dW[:record] / substeps + np.sqrt(h / substeps) * (z - z.mean(axis=0))
        inner = x[:record]
        mean_step = cb[:record] if a == 1.0 else cb[:record] + (a - 1.0) * inner
        for part_s in parts[:-1]:
            inner = inner + mean_step / substeps + np.sum(sig[:record] * part_s, axis=1)
            states.append(inner)
        x = (x if a == 1.0 else a * x) + cb + np.sum(sig * dW, axis=1)
        states.append(x[:record])
        blocks.extend(parts)
    return spec.payoff_values(x[:, None]), np.array(states), np.array(blocks)


# (family, noise columns, u actions); bilinear is the family whose drift moves with
# the actions, so its 3 x 2 case checks the iu * kv + iv layout of the pair table.
# affine is the family whose law has a != 1, so its cases certify the state factor
PLAY_PROBLEMS = {
    "constant": ("constant", None, (-1.0, 1.0)),
    "affine": ("affine", None, (-1.0, 1.0)),
    "affine_3x2": ("affine", None, (-1.0, 0.0, 1.0)),
    "bilinear": ("bilinear", None, (-1.0, 1.0)),
    "bilinear_d3": ("bilinear", 3, (-1.0, 1.0)),
    "bilinear_3x2": ("bilinear", None, (-1.0, 0.0, 1.0)),
}


@pytest.mark.parametrize("rule", ["time_only", "logistic", "marks"])
@pytest.mark.parametrize("case", sorted(PLAY_PROBLEMS))
def test_play_matches_per_substep_oracle_bitwise(case, rule):
    coef, noise_dim, u_values = PLAY_PROBLEMS[case]
    prio = ("logistic", (0.3, -1.0, 0.8)) if rule == "logistic" else ("constant", (0.5,))
    prob = _lattice_problem(coef, u_values, noise_dim=noise_dim, priority=prio)
    grid = SpatialGrid(-6.0, 6.0, 121)
    # unequal steps, so a drift step frozen with another interval's dt shows
    part = Partition(np.array([0.0, 0.05, 0.12, 0.3, 0.5]))
    lattice = build_lattice(prob, grid, part)
    marks = None
    if rule == "marks":
        marks, subgrid = make_marks(part, prob.priority, 2)
        tables = dp_value_deterministic(prob, part, marks, subgrid, lattice)
    else:
        tables = dp_value_random(prob, part, lattice)
    su, sv = tables.strategy_u, tables.strategy_v
    paths, substeps, record = 300, 3, 5
    mode = DeterministicMode(marks) if marks else RandomMode(CoinSource(4))
    play = simulate(prob, part, mode, su, sv, paths, substeps, NoiseSource(5), record=record)
    payoffs, states, blocks = _oracle_play(prob, part, marks, su, sv, paths, substeps, 4, 5,
                                           record)
    assert play.payoffs.tobytes() == payoffs.tobytes()
    noise_shape = (part.intervals, substeps, prob.noise_dim)
    for i, rec in enumerate(play.records):
        assert rec.substep_states.tobytes() == states[:, i].tobytes()
        assert rec.noise.tobytes() == blocks[:, i].reshape(noise_shape).tobytes()

    roster_seed, challengers = 2, 4
    for side in ("u", "v"):
        frozen = su if side == "u" else sv
        report = exploitability(
            prob, part, "deterministic" if marks else "random", side, frozen, challengers,
            roster_seed, tables=tables, marks=marks, paths=paths, substeps=substeps,
        )
        roster = engine._roster(prob, part, "v" if side == "u" else "u", challengers,
                                roster_seed, tables)
        for got, (_, build) in zip(report.results, roster):
            pair = (frozen, build()) if side == "u" else (build(), frozen)
            payoffs = _oracle_play(prob, part, marks, *pair, paths, substeps,
                                   roster_seed * 7000, roster_seed * 9000)[0]
            assert got.mean == float(payoffs.mean())
            assert got.std_error == float(payoffs.std(ddof=1) / np.sqrt(paths))


@pytest.mark.parametrize("case", sorted(PLAY_PROBLEMS))
def test_state_free_play_ignores_substeps_and_record(case):
    # every family moves once per interval by its exact interval law, so
    # sub-steps refine only the audit trail, and recording draws nothing
    # from the main stream
    coef, noise_dim, u_values = PLAY_PROBLEMS[case]
    prob = _lattice_problem(coef, u_values, noise_dim=noise_dim)
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = Partition(np.array([0.0, 0.05, 0.12, 0.3, 0.5]))
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    paths = 300

    def play(substeps, record):
        return simulate(prob, part, RandomMode(CoinSource(4)), tables.strategy_u,
                        tables.strategy_v, paths, substeps, NoiseSource(5), record=record)

    base = play(1, 0).payoffs
    ends = None
    for substeps in (1, 3, 4):
        for record in (0, 5):
            res = play(substeps, record)
            assert res.payoffs.tobytes() == base.tobytes()
            if not record:
                continue
            # every decision-time state is the path's own, whatever the trail's refinement
            states = np.array([rec.states for rec in res.records])
            ends = states if ends is None else ends
            assert states.tobytes() == ends.tobytes()
            last = prob.payoff_values(states[:, -1:])
            assert last.tobytes() == base[:record].tobytes()
            for rec in res.records:
                assert rec.noise.shape == (part.intervals, substeps, prob.noise_dim)


def test_bridge_parts_sum_to_the_increment_and_spare_the_main_stream():
    h, substeps, rows = 0.3, 5, 200_000
    src = NoiseSource(3)
    dW = src.increments(rows, 2, h)
    parts = src.bridge(dW, substeps, h)
    assert parts.shape == (substeps, rows, 2)
    assert np.max(np.abs(parts.sum(axis=0) - dW)) <= 1e-14
    assert src.bridge(dW, 1, h)[0].tobytes() == dW.tobytes()
    # the bridge has its own generator: the main stream goes on as if unbridged
    assert src.draws == rows * 2
    fresh = NoiseSource(3)
    fresh.increments(rows, 2, h)
    assert src.increments(7, 2, h).tobytes() == fresh.increments(7, 2, h).tobytes()
    # unconditionally the parts are independent N(0, h / S) increments
    flat = parts[:, :, 0]
    assert np.all(np.abs(flat.var(axis=1) / (h / substeps) - 1.0) < 0.02)
    assert abs(float(np.corrcoef(flat[0], flat[1])[0, 1])) < 0.01


def test_benchmark_game_play_matches_the_exact_frozen_action_value():
    # dX = 4 u v dt + sqrt(2) dW, p = 0.5, x0 = 0 on 641 x 100: with exact
    # increments and frozen actions the game's value is e^-T cos(kappa T / n)^n,
    # and the saddle tables miss it by at most kappa dx T from their node snapping
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 641)
    n = 100
    part = make_uniform_partition(0.0, prob.horizon, n)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    res = simulate(prob, part, RandomMode(CoinSource(11)), tables.strategy_u,
                   tables.strategy_v, 100_000, 4, NoiseSource(12))
    exact = np.exp(-prob.horizon) * np.cos(4.0 * prob.horizon / n) ** n
    assert abs(res.mean - exact) <= 4.0 * res.std_error + 4.0 * grid.dx * prob.horizon


@pytest.mark.parametrize("substeps", [1, 4])
@pytest.mark.parametrize("times", [make_uniform_partition(0.0, 0.5, 4).times,
                                   np.array([0.0, 0.05, 0.12, 0.3, 0.5])])
def test_affine_play_matches_the_ornstein_uhlenbeck_value(times, substeps):
    # the affine drift 0.2 - x moves with the state and not with the actions, so
    # E cos X_T is the closed form whatever the strategies; with 4 Euler
    # sub-steps per interval play sat 29 to 42 SE below it on these partitions
    prob = ou_problem()
    part = Partition(times)
    grid = SpatialGrid(-6.0, 6.0, 61)
    su = random_markov_strategy("u", grid, part, 2, 2, 1)
    sv = random_markov_strategy("v", grid, part, 2, 2, 2)
    res = simulate(prob, part, RandomMode(CoinSource(4)), su, sv, 200_000, substeps,
                   NoiseSource(5))
    assert abs(res.mean - float(ou_value(prob.horizon, 0.0))) <= 3.0 * res.std_error


def test_an_overflowing_interval_law_raises_naming_the_interval():
    # c1 h = 499 on the second interval: e^{2 c1 h} overflows, so s is inf
    # and every later payoff would be NaN
    prob = dataclasses.replace(
        ou_problem(), coefficients=CoefficientSpec("affine", (0.0, 1000.0, 1.0), dim=1,
                                                   noise_dim=1),
    )
    part = Partition(np.array([0.0, 0.001, 0.5]))
    grid = SpatialGrid(-6.0, 6.0, 61)
    su = random_markov_strategy("u", grid, part, 2, 2, 1)
    sv = random_markov_strategy("v", grid, part, 2, 2, 2)
    assert np.isfinite(prob.coefficients.interval_law(0.001)).all()
    with pytest.raises(EngineError, match="^interval 1: .* not finite$"):
        simulate(prob, part, RandomMode(CoinSource(4)), su, sv, 16, 1, NoiseSource(5))


@pytest.mark.parametrize("sigma", [0.0, -0.0])
@pytest.mark.parametrize("coef", ["constant", "affine"])
def test_one_noise_column_keeps_the_sign_of_zero_bitwise(coef, sigma):
    # X starts at -0.0 and b0 = -0.0, so a X + c b0 = -0.0, and sigma dW is
    # +0.0 or -0.0 by the sign of dW: a bare -0.0 + -0.0 would keep X at -0.0
    # where the oracle's np.sum over the noise column makes it +0.0.  The
    # affine drift c0 + c1 x reads -0.0 at x = 0 only with c1 < 0
    params = (-0.0, sigma) if coef == "constant" else (-0.0, -1.0, sigma)
    prob = ProblemSpec(
        coefficients=CoefficientSpec(coef, params, dim=1, noise_dim=1),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec("constant", (0.5,), dim=1),
        actions_u=ActionSet.from_values((-1.0, 1.0)),
        actions_v=ActionSet.from_values((-1.0, 1.0)),
        horizon=0.5,
        start_state=(-0.0,),
    )
    zero = np.zeros((1, 1))
    assert np.signbit(prob.coefficients.drift(0.0, zero, zero, zero)).all()
    grid = SpatialGrid(-1.0, 1.0, 21)
    part = make_uniform_partition(0.0, 0.5, 3)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    paths, substeps = 40, 2
    play = simulate(prob, part, RandomMode(CoinSource(4)), tables.strategy_u,
                    tables.strategy_v, paths, substeps, NoiseSource(5), record=paths)
    states, blocks = _oracle_play(prob, part, None, tables.strategy_u, tables.strategy_v,
                                  paths, substeps, 4, 5)[1:]
    assert np.any(blocks < 0.0) and np.any(blocks > 0.0)
    assert np.all(states[1:] == 0.0) and not np.signbit(states[1:]).any()
    for i, rec in enumerate(play.records):
        assert rec.substep_states.tobytes() == states[:, i].tobytes()


@pytest.mark.parametrize("coef", ["bilinear", "affine"])
def test_out_of_range_actions_raise_engine_error(coef):
    # a 2-action side whose table plays action 2: as a leader the opponent's
    # counter map is read past its row, as a responder the pair table would be
    prob = _lattice_problem(coef)
    grid = SpatialGrid(-6.0, 6.0, 61)
    part = make_uniform_partition(0.0, 0.5, 4)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    n = grid.nodes
    ok_plain, ok_counter = np.zeros((1, n), int), np.zeros((1, n, 2), int)
    bad_plain, bad_counter = np.full((1, n), 2), np.full((1, n, 2), 2)
    cases = [
        # (side, plain, counter, mark: 1 when v responds)
        ("u", bad_plain, ok_counter, 1),
        ("u", ok_plain, bad_counter, 0),
        ("v", bad_plain, ok_counter, 0),
        ("v", ok_plain, bad_counter, 1),
    ]
    for side, plain, counter, mark in cases:
        cls = MarkovStrategyU if side == "u" else MarkovStrategyV
        bad = cls(grid, (0,), plain, counter)
        marks = MarkSequence((mark,) * part.intervals)
        pair = (bad, tables.strategy_v) if side == "u" else (tables.strategy_u, bad)
        with pytest.raises(EngineError):
            simulate(prob, part, DeterministicMode(marks), *pair, 64, 2, NoiseSource(2))
        with pytest.raises(EngineError):
            exploitability(prob, part, "deterministic", side, bad, 3, 1, tables=tables,
                           marks=marks, paths=64, substeps=1)


class _ConstantStrategy:
    """Plays ``action`` as its plain move and as every counter reply."""

    def __init__(self, grid, action):
        self.grid = grid
        self.action = action

    def moves(self, k, nodes, prev):
        return np.full_like(nodes, self.action), lambda opp: np.full_like(opp, self.action)


@pytest.mark.parametrize("side", ["u", "v"])
def test_a_negative_action_index_raises_the_sides_range_error(side):
    # Markov tables reject negative entries when built, so only a duck-typed
    # strategy reaches the range check with one: -1 wraps above the range
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 61)
    part = make_uniform_partition(0.0, 0.5, 4)
    bad, fine = _ConstantStrategy(grid, -1), _ConstantStrategy(grid, 0)
    pair = (bad, fine) if side == "u" else (fine, bad)
    with pytest.raises(EngineError, match=rf"^{side} played an action index outside \[0, 2\)$"):
        simulate(prob, part, RandomMode(CoinSource(1)), *pair, 64, 2, NoiseSource(2))


def test_counter_actions_reject_an_opponent_index_past_the_row():
    grid = SpatialGrid(-1.0, 1.0, 5)
    counter = np.arange(10).reshape(1, 5, 2) % 2
    strat = MarkovStrategyV(grid, (0,), np.zeros((1, 5), int), counter)
    nodes = np.array([0, 3, 4])
    got = strat.moves(0, nodes, None)[1](np.array([1, 0, 1]))
    assert got.tolist() == counter[0, nodes, [1, 0, 1]].tolist()
    # opp = 2 at node 0 would read node 1's first entry through a flat index
    reply = strat.moves(0, np.array([0]), None)[1]
    for opp in (2, -1):
        with pytest.raises(EngineError):
            reply(np.array([opp]))


def test_markov_out_of_range_action_at_an_unvisited_node_raises():
    # a Markov pair is resolved for every node, visited or not: a bad action
    # at the left edge raises although no path comes near it
    prob = _lattice_problem("bilinear")
    grid = SpatialGrid(-6.0, 6.0, 61)
    part = make_uniform_partition(0.0, 0.5, 4)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    paths = 64
    fine = simulate(prob, part, RandomMode(CoinSource(1)), tables.strategy_u,
                    tables.strategy_v, paths, 2, NoiseSource(2), record=paths)
    states = np.concatenate([rec.states for rec in fine.records])
    assert grid.nearest_index(states).min() > 0
    plain = tables.strategy_u.plain.copy()
    plain[:, 0] = 2
    bad = MarkovStrategyU(grid, tables.strategy_u.starts, plain, tables.strategy_u.counter)
    with pytest.raises(EngineError, match="outside"):
        simulate(prob, part, RandomMode(CoinSource(1)), bad, tables.strategy_v, paths, 2,
                 NoiseSource(2))


def test_random_markov_strategy_rejects_an_unknown_side():
    grid = SpatialGrid(-6.0, 6.0, 31)
    part = make_uniform_partition(0.0, 0.5, 6)
    assert type(random_markov_strategy("u", grid, part, 2, 2, 1)) is MarkovStrategyU
    assert type(random_markov_strategy("v", grid, part, 2, 2, 1)) is MarkovStrategyV
    for side in ("w", "U", "", None):
        with pytest.raises(EngineError, match="^side must be 'u' or 'v', got "):
            random_markov_strategy(side, grid, part, 2, 2, 1)


def test_negative_seeds_raise_engine_errors_naming_the_seed():
    prob = bilinear_problem()
    grid = SpatialGrid(-6.0, 6.0, 41)
    part = make_uniform_partition(0.0, 0.5, 4)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    message = "^seed must be non-negative, got -1$"
    with pytest.raises(EngineError, match=message):
        random_markov_strategy("v", grid, part, 2, 2, -1)
    with pytest.raises(EngineError, match=message):
        perturbed_strategy(tables.strategy_v, 0.15, -1, 2)
    with pytest.raises(EngineError, match=message):
        exploitability(prob, part, "random", "u", tables.strategy_u, 4, -1, tables=tables,
                       paths=16, substeps=1)


def _replay_path(spec, part, marks, strat_u, strat_v, rec):
    """One recorded path replayed alone from its coins and noise.

    The path moved once per interval by its family's law, so its record
    holds that move's increment split by a bridge: the replay steps
    ((a - 1) X + c b0) / S and s sigma part_s from the interval's first
    point X, the parts must reach the recorded end state within rounding,
    and the replay goes on from that state.  Returns its u and v actions,
    who moved second, and its trail states.
    """
    substeps = rec.noise.shape[1]
    x = np.full(1, spec.start_state[0])
    zero = np.zeros((1, 1))
    us, vs, second, states = [], [], [], [x]
    prev = None
    for k in range(part.intervals):
        t_prev = float(part.times[k])
        nodes = strat_u.grid.nearest_index(x)
        if marks is None:
            heads = rec.coins[k] < spec.priority_values(t_prev, x[:, None])
        else:
            heads = np.full(1, marks.array[k] == 1)
        u_plain = _oracle_actions(strat_u, k, nodes, prev)
        v_plain = _oracle_actions(strat_v, k, nodes, prev)
        iu = np.where(heads, u_plain, _oracle_actions(strat_u, k, nodes, prev, v_plain))
        iv = np.where(heads, _oracle_actions(strat_v, k, nodes, prev, u_plain), v_plain)
        U, V = spec.actions_u.array[iu], spec.actions_v.array[iv]
        prev = nodes
        a, c, s = spec.coefficients.interval_law(float(part.steps[k]))
        cb = spec.drift(t_prev, zero, U, V)[:, 0] * c
        sig = spec.diffusion(t_prev, zero, U, V)[:, 0, :] * s
        step = (cb if a == 1.0 else cb + (a - 1.0) * x) / substeps
        for ss in range(substeps):
            x = x + step + np.sum(sig * rec.noise[k, ss][None, :], axis=1)
            states.append(x)
        assert abs(x[0] - rec.states[k + 1]) <= 1e-12
        x = rec.states[k + 1:k + 2]
        states[-1] = x
        us.append(iu[0])
        vs.append(iv[0])
        second.append(heads[0])
    return np.array(us), np.array(vs), np.array(second), np.concatenate(states)


@pytest.mark.parametrize("coef", ["bilinear", "affine"])
@pytest.mark.parametrize("rule", ["time_only", "logistic", "marks"])
def test_mixed_markov_and_feedback_lanes_match_a_per_path_replay(rule, coef):
    prio = ("logistic", (0.3, -1.0, 0.8)) if rule == "logistic" else ("constant", (0.5,))
    prob = _lattice_problem(coef, (-1.0, 0.0, 1.0), priority=prio)
    grid = SpatialGrid(-6.0, 6.0, 121)
    part = Partition(np.array([0.0, 0.05, 0.12, 0.3, 0.5]))
    lattice = build_lattice(prob, grid, part)
    marks = None
    if rule == "marks":
        marks, subgrid = make_marks(part, prob.priority, 2)
        tables = dp_value_deterministic(prob, part, marks, subgrid, lattice)
    else:
        tables = dp_value_random(prob, part, lattice)
    su, sv = tables.strategy_u, tables.strategy_v
    fu = HashFeedbackStrategyU(grid, 3, 7)
    fv = engine.HashFeedbackStrategyV(grid, 2, 8)
    ru = random_markov_strategy("u", grid, part, 3, 2, 1)
    # Markov pairs are resolved per node, pairs with a feedback side per path
    pairs = [(su, sv), (fu, sv), (su, fv), (ru, sv), (fu, fv)]
    paths, substeps, record = 200, 3, 8
    mode = DeterministicMode(marks) if marks else RandomMode(CoinSource(4))
    plays = engine._play(prob, part, mode, pairs, paths, substeps, NoiseSource(5), record)
    # the replay reads each record's coins, so check them against the stream
    coins = np.full((part.intervals, record), np.nan)
    if not marks:
        source = CoinSource(4)
        coins = np.stack([source.uniforms(paths)[:record] for _ in range(part.intervals)])
    for (strat_u, strat_v), play in zip(pairs, plays):
        assert len(play.records) == record
        for j, rec in enumerate(play.records):
            assert np.array_equal(rec.coins, coins[:, j], equal_nan=True)
            us, vs, second, states = _replay_path(prob, part, marks, strat_u, strat_v, rec)
            assert np.array_equal(rec.u_actions, us)
            assert np.array_equal(rec.v_actions, vs)
            assert np.array_equal(rec.who_second, second)
            assert rec.substep_states.tobytes() == states.tobytes()
