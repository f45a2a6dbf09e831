"""End-to-end acceptance checks, one test per advertised guarantee.

Each test states its tolerance inline and asserts its own runtime bound
where one is advertised.  Shared heavy artifacts (the fine-grid PDE
references and the backward-induction tables against them) are built
once per module.
"""

import filecmp
import time

import numpy as np
import pytest

from helpers import SQRT2, bilinear_problem, one_sided_chains, singleton_problem
from isaacslab import cli, pde, static_game
from isaacslab.config import load_config
from isaacslab.engine import (
    CoinSource,
    NoiseSource,
    RandomMode,
    build_lattice,
    dp_value_deterministic,
    dp_value_random,
    exploitability,
    simulate,
)
from isaacslab.hamiltonian import hamiltonian_batch
from isaacslab.pde import SpatialGrid
from isaacslab.schedule import (
    MarkSequence,
    check_density,
    make_marks,
    make_uniform_partition,
)

seed = 0

BENCH_GRID = SpatialGrid(-8.0, 8.0, 2561)  # dx = 0.00625
LEVELS = (25, 50, 100)


@pytest.fixture(scope="module")
def convergence_data():
    """Random- and deterministic-mode DP values vs fine PDE references.

    One fixed reference per benchmark priority; backward induction on the
    same grid at every refinement level; sup gaps on |x| <= 2.  At each
    level the p == 1 and p == 0 mark chains on the same lattice give the
    one-sided values the blended ones are ordered against.
    """
    t0 = time.monotonic()
    window = np.abs(BENCH_GRID.xs) <= 2.0
    data = {"order_violations": [], "order_margins": [], "isaacs_gaps": []}
    for label, family, params in [
        ("const", "constant", (0.5,)),
        ("linear", "linear_time", (0.3, 0.4)),
    ]:
        prob = bilinear_problem(prio_family=family, prio_params=params)
        ref = pde.solve(prob, BENCH_GRID, pde.cfl_max_dt(prob, BENCH_GRID))
        ref0 = ref.initial_slice[window]
        rows = []
        for n in LEVELS:
            part = make_uniform_partition(0.0, 0.5, n)
            lattice = build_lattice(prob, BENCH_GRID, part)
            rand = dp_value_random(prob, part, lattice)
            row = {
                "n": n,
                "rand_gap": float(np.max(np.abs(rand.value.initial_slice[window] - ref0))),
            }
            mixed = [rand]
            if label == "const":
                block = max(1, int(round(np.sqrt(n))))
                marks, subgrid = make_marks(part, prob.priority, block)
                det = dp_value_deterministic(prob, part, marks, subgrid, lattice)
                row["det_gap"] = float(np.max(np.abs(det.value.initial_slice[window] - ref0)))
                mixed.append(det)
            lower, upper = one_sided_chains(prob, part, lattice)
            data["isaacs_gaps"].append(float(np.max(upper[:, window] - lower[:, window])))
            for tables in mixed:
                data["order_violations"].append(tables.max_order_violation)
                data["order_margins"].append(
                    min(float(np.min(tables.value.values - lower)),
                        float(np.min(upper - tables.value.values)))
                )
            rows.append(row)
        data[label] = rows
    data["elapsed"] = time.monotonic() - t0
    return data


@pytest.fixture(scope="module")
def benchmark_tables():
    prob = bilinear_problem()
    grid = SpatialGrid(-8.0, 8.0, 641)
    part = make_uniform_partition(0.0, 0.5, 100)
    tables = dp_value_random(prob, part, build_lattice(prob, grid, part))
    return prob, part, tables


def test_criterion_1_static_representation_identity():
    # sup-inf, inf-sup and the p-blend coincide on every random local game
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    for _ in range(100):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        game = static_game.LocalGameMatrix(rng.normal(size=(m, n)))
        prio = float(rng.random())
        sad = static_game.saddle(game, prio)
        supinf, infsup, _ = static_game.representation_residual(game, prio)
        assert abs(supinf - sad.mixed) < 1e-12
        assert abs(infsup - sad.mixed) < 1e-12
    assert time.monotonic() - start < 30.0


def test_criterion_2_hamiltonian_sandwich():
    # H- <= H^p <= H+ at 1e4 seeded states; p in {0, 1} lands bitwise on a side
    start = time.monotonic()
    spec = bilinear_problem(prio_family="linear_time", prio_params=(0.3, 0.4))
    lo_spec = bilinear_problem(prio_family="constant", prio_params=(1.0,))
    up_spec = bilinear_problem(prio_family="constant", prio_params=(0.0,))
    rng = np.random.default_rng(1002)
    for _ in range(200):
        t = float(rng.uniform(0.0, 0.5))
        X = rng.normal(0.0, 2.0, size=(50, 1))
        G = rng.normal(0.0, 2.0, size=(50, 1))
        H = rng.normal(0.0, 2.0, size=(50, 1, 1))
        low, up, mixed = hamiltonian_batch(spec, t, X, G, H)
        assert np.all(low <= mixed + 1e-12)
        assert np.all(mixed <= up + 1e-12)
        lo1, _, mix1 = hamiltonian_batch(lo_spec, t, X, G, H)
        _, up0, mix0 = hamiltonian_batch(up_spec, t, X, G, H)
        assert np.array_equal(mix1, lo1)
        assert np.array_equal(mix0, up0)
    assert time.monotonic() - start < 10.0


def test_criterion_3_pde_closed_form_oracles():
    # uncontrolled linear dynamics against exact Gaussian expectations
    start = time.monotonic()
    cases = [
        (
            singleton_problem(drift=0.0, sigma=SQRT2, payoff=("clipped_quadratic", (64.0,))),
            lambda xs: xs**2 + 1.0,
        ),
        (
            singleton_problem(drift=0.01, sigma=1.0, payoff=("cosine", (1.0, 1.0))),
            lambda xs: np.exp(-0.25) * np.cos(xs + 0.005),
        ),
    ]
    suite_err = {}
    for nodes, dx in [(161, 0.1), (321, 0.05)]:
        grid = SpatialGrid(-8.0, 8.0, nodes)
        window = np.abs(grid.xs) <= 2.0
        errs = []
        for prob, exact in cases:
            field = pde.solve(prob, grid, pde.cfl_max_dt(prob, grid))
            errs.append(float(np.max(np.abs(field.initial_slice[window] - exact(grid.xs[window])))))
        suite_err[dx] = max(errs)
        if dx == 0.05:
            for e in errs:
                assert e < 2e-2
    # the quadratic oracle sits at roundoff (exact second difference), so
    # the refinement ratio is read off the suite-level error, which the
    # cosine oracle dominates
    ratio = suite_err[0.1] / suite_err[0.05]
    assert 2.5 <= ratio <= 5.0
    assert time.monotonic() - start < 60.0


def test_criterion_4_game_pde_convergence(convergence_data):
    for label in ("const", "linear"):
        gaps = [row["rand_gap"] for row in convergence_data[label]]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= 1.1 * a
        assert gaps[-1] <= 5e-2
    assert convergence_data["elapsed"] < 300.0


def test_criterion_5_deterministic_mark_convergence(convergence_data):
    rows = convergence_data["const"]
    for row in rows:
        assert row["det_gap"] <= 1.5 * row["rand_gap"]
    assert rows[-1]["det_gap"] <= 5e-2
    assert convergence_data["elapsed"] < 300.0


def test_criterion_6_value_ordering(convergence_data, benchmark_tables):
    assert max(convergence_data["order_violations"]) <= 1e-9
    # lower <= mixed <= upper at every node and slice, against one-sided
    # chains that differ, so the check can fail
    assert min(convergence_data["order_margins"]) >= -1e-12
    assert min(convergence_data["isaacs_gaps"]) > 1e-3
    prob, _, tables = benchmark_tables
    assert tables.max_order_violation <= 1e-9
    grid = SpatialGrid(-8.0, 8.0, 641)
    dt = pde.cfl_max_dt(prob, grid)
    lo = pde.solve(prob, grid, dt, hamiltonian="lower")
    mid = pde.solve(prob, grid, dt, hamiltonian="mixed")
    hi = pde.solve(prob, grid, dt, hamiltonian="upper")
    assert np.all(lo.values <= mid.values + 1e-9)
    assert np.all(mid.values <= hi.values + 1e-9)
    interior = np.abs(grid.xs) <= 2.0
    assert float(np.max(hi.values[:, interior] - lo.values[:, interior])) > 1e-3


def test_criterion_7_monte_carlo_consistency(benchmark_tables):
    start = time.monotonic()
    prob, part, tables = benchmark_tables
    v0 = tables.value_at_start(prob.start_state[0])
    sim = simulate(
        prob, part, RandomMode(CoinSource(12)), tables.strategy_u, tables.strategy_v,
        100_000, 4, NoiseSource(11),
    )
    assert abs(sim.mean - v0) <= 3.0 * sim.std_error
    for side, strategy in [("u", tables.strategy_u), ("v", tables.strategy_v)]:
        report = exploitability(
            prob, part, "random", side, strategy, 50, 77,
            tables=tables, paths=20_000, substeps=4,
        )
        assert len(report.results) == 50
        worst = report.worst
        if side == "u":
            assert worst.mean >= v0 - 3.0 * worst.std_error
        else:
            assert worst.mean <= v0 + 3.0 * worst.std_error
    assert time.monotonic() - start < 300.0


def test_criterion_8_density_machinery():
    # dyadic exact-fraction grids: the greedy marks hit the target with
    # literally zero deviation; non-dyadic exact fractions sit at fp noise
    for target in (0.25, 0.5):
        part = make_uniform_partition(0.0, 1.0, 64)
        prob = bilinear_problem(prio_params=(target,))
        marks, subgrid = make_marks(part, prob.priority, 8)
        report = check_density(part, marks, subgrid, prob.priority, epsilon=0.125)
        assert report.max_deviation == 0.0
        assert report.passed
    for target in (0.5, 0.3):
        part = make_uniform_partition(0.0, 1.0, 100)
        prob = bilinear_problem(prio_params=(target,))
        marks, subgrid = make_marks(part, prob.priority, 10)
        report = check_density(part, marks, subgrid, prob.priority, epsilon=0.1)
        assert report.max_deviation <= 1e-12
        assert report.passed
    # seeded sweep with the analytically forced epsilon:
    # max(block duration, per-block step/duration = 1/(intervals in block))
    rng = np.random.default_rng(1008)
    for _ in range(25):
        n = int(rng.integers(10, 300))
        block = int(rng.integers(1, n + 1))
        span = float(rng.uniform(0.5, 2.0))
        target = float(rng.uniform(0.05, 0.95))
        part = make_uniform_partition(0.0, span, n)
        prob = bilinear_problem(prio_params=(target,))
        marks, subgrid = make_marks(part, prob.priority, block)
        shortest = min(hi - lo for lo, hi in subgrid.block_slices())
        forced = max(span * block / n, 1.0 / shortest)
        report = check_density(part, marks, subgrid, prob.priority, epsilon=forced)
        assert report.passed
    # all-ones marks against p = 0.5 miss by exactly one half
    part = make_uniform_partition(0.0, 1.0, 100)
    prob = bilinear_problem(prio_params=(0.5,))
    _, subgrid = make_marks(part, prob.priority, 10)
    ones = MarkSequence((1,) * 100)
    report = check_density(part, ones, subgrid, prob.priority, epsilon=0.49)
    assert report.max_deviation == 0.5
    assert not report.passed
    assert check_density(part, ones, subgrid, prob.priority, epsilon=1.0).passed


REPLAY_CONVERGE_CFG = """
problem.coefficients.family = constant
problem.coefficients.params = 0.01, 1.0
problem.payoff.family = cosine
problem.payoff.params = 1.0, 1.0
problem.priority.family = constant
problem.priority.params = 0.5
problem.actions.u = 0
problem.actions.v = 0
problem.horizon = 0.5
discretization.grid.lower = -6
discretization.grid.upper = 6
discretization.grid.nodes = 121
run.levels = 4, 8
run.paths = 200
run.substeps = 2
"""

REPLAY_SIMULATE_CFG = """
problem.coefficients.family = bilinear
problem.coefficients.params = 4.0, 1.4142135623730951
problem.payoff.family = cosine
problem.payoff.params = 1.0, 1.0
problem.priority.family = constant
problem.priority.params = 0.5
problem.actions.u = -1, 1
problem.actions.v = -1, 1
problem.horizon = 0.5
discretization.grid.lower = -6
discretization.grid.upper = 6
discretization.grid.nodes = 121
discretization.partition.n = 10
run.paths = 300
run.record_paths = 2
"""

REPLAY_STATIC_CFG = "static.matrix = 1,2;3,0\nstatic.prio = 0.3\n"

REPLAY_MARKS = "run.mode = deterministic\ndiscretization.block = 5\nrun.epsilon = 0.5\n"


@pytest.mark.parametrize(
    "command, cfg_text",
    [
        ("converge", REPLAY_CONVERGE_CFG),
        ("simulate", REPLAY_SIMULATE_CFG),
        ("static", REPLAY_STATIC_CFG),
        ("dp", REPLAY_SIMULATE_CFG + REPLAY_MARKS),
        ("simulate", REPLAY_SIMULATE_CFG + REPLAY_MARKS),
        ("converge", REPLAY_CONVERGE_CFG + "run.mode = both\n"),
    ],
    ids=["converge", "simulate", "static", "dp_deterministic", "simulate_deterministic",
         "converge_both"],
)
def test_criterion_9_manifest_replay_is_bitwise(tmp_path, command, cfg_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text, encoding="utf-8")
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert cli.main([command, "--config", str(cfg), "--out", str(first)]) == 0
    manifest = first / f"{command}_{command}_manifest.txt"
    assert manifest.exists()
    assert cli.main([command, "--config", str(manifest), "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    outputs = load_config(manifest).get_str("meta.outputs")
    assert outputs
    for name in names:
        assert filecmp.cmp(first / name, second / name, shallow=False), name
