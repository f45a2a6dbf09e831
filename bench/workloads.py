"""The three benchmark workloads, all on the benchmark game of ``oracles``.

Each workload has a ``setup`` that builds its inputs from the seed (problem,
grid and partition objects, or config files) and a ``round`` that runs its
operations once.  An operation is one call into the program, timed by the
round's ``Clock``, followed by its checks, which run outside the timed
region.  Every round of a run repeats the same operations on the same
inputs.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles as orc
from isaacslab import cli, engine, pde, schedule
from isaacslab.problem import ActionSet, CoefficientSpec, PayoffSpec, PrioritySpec, ProblemSpec


@dataclass
class Op:
    """One operation and its checks.

    ``known_fault`` names a check that fails because of a documented fault
    in the program; the operation still counts as failed, but the run
    stays correct as long as no other check fails.
    """

    name: str
    checks: list
    known_fault: str | None = None

    @property
    def failed(self) -> bool:
        return not all(c.ok for c in self.checks)

    @property
    def unexpected(self) -> list:
        return [c for c in self.checks if not c.ok and c.name != self.known_fault]


@dataclass
class Clock:
    """Sums the elapsed time and the CPU time of the program calls made through it.

    The load is one process with BLAS on one thread, so its CPU time is the
    elapsed time less what it spent waiting for a CPU: time the hypervisor
    gave to other guests (steal, which a paravirtualised kernel leaves out
    of task time) and time other tasks held the CPU.  On a shared host both
    come and go over minutes and have nothing to do with the program.
    """

    wall: float = 0.0
    cpu: float = 0.0

    def __call__(self, fn, *args, **kwargs):
        c0 = time.process_time()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        self.wall += time.perf_counter() - t0
        self.cpu += time.process_time() - c0
        return out


@dataclass
class RoundResult:
    ops: list
    clock: Clock
    metrics: dict = field(default_factory=dict)


def benchmark_problem() -> ProblemSpec:
    return ProblemSpec(
        coefficients=CoefficientSpec("bilinear", (orc.KAPPA, orc.S0), dim=1, noise_dim=1),
        payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
        priority=PrioritySpec("constant", (orc.P,), dim=1),
        actions_u=ActionSet.from_values((-1.0, 1.0)),
        actions_v=ActionSet.from_values((-1.0, 1.0)),
        horizon=orc.T,
    )


# --- reference_fine -------------------------------------------------------------------

FINE_NODES = 2561
FINE_LEVELS = (25, 50, 100)
FINE_PATHS = 10_000
SUBSTEPS = 4


def setup_reference_fine(seed: int, workdir: Path) -> dict:
    spec = benchmark_problem()
    return {
        "seed": seed,
        "spec": spec,
        "grid": pde.SpatialGrid(orc.LOWER, orc.UPPER, FINE_NODES),
        "partitions": {
            n: schedule.make_uniform_partition(0.0, orc.T, n) for n in FINE_LEVELS
        },
    }


def _pde_op(clock: Clock, spec, grid) -> tuple[Op, float]:
    dt = clock(pde.cfl_max_dt, spec, grid)
    field_ = clock(pde.solve, spec, grid, dt)
    step = float(field_.times[1] - field_.times[0])
    pde_check, err = orc.check_pde(grid.xs, field_.initial_slice, step)
    checks = [orc.check_bounded("pde_slices_bounded", field_.values), pde_check]
    return Op("pde.solve", checks), err


def _dp_ops(clock: Clock, spec, grid, part) -> tuple[list, object, float]:
    lattice = clock(engine.build_lattice, spec, grid, part)
    lat_op = Op("engine.build_lattice",
                [orc.check_successors(grid.xs, part.times, lattice.successors)])
    tables = clock(engine.dp_value_random, spec, part, lattice)
    dp_check, err = orc.check_dp(grid.xs, tables.value.initial_slice, part.intervals)
    checks = [
        orc.check_bounded("dp_values_bounded", tables.value.values),
        orc.check_order(tables.max_order_violation),
        dp_check,
    ]
    return [lat_op, Op("engine.dp_value_random", checks)], tables, err


def round_reference_fine(inp: dict) -> RoundResult:
    clock = Clock()
    spec, grid, seed = inp["spec"], inp["grid"], inp["seed"]
    op, pde_err = _pde_op(clock, spec, grid)
    ops = [op]
    dp_errs = {}
    mc_se = None
    for i, (n, part) in enumerate(inp["partitions"].items()):
        dp_ops, tables, dp_errs[n] = _dp_ops(clock, spec, grid, part)
        ops += dp_ops
        sim = clock(
            engine.simulate, spec, part,
            engine.RandomMode(engine.CoinSource(seed * 100 + 50 + i)),
            tables.strategy_u, tables.strategy_v, FINE_PATHS, SUBSTEPS,
            engine.NoiseSource(seed * 100 + i),
        )
        ops.append(Op("engine.simulate",
                      [orc.check_mc(sim.mean, sim.std_error, n, grid.dx)]))
        mc_se = sim.std_error
        del tables
    # the convergence check belongs to the finest DP solve
    ops[-2].checks.append(orc.check_halving(dp_errs))
    return RoundResult(ops, clock, {
        "pde_err": pde_err, "dp_err": dp_errs[max(dp_errs)], "mc_se": mc_se,
    })


# --- play_wide ------------------------------------------------------------------------

WIDE_NODES = 641
WIDE_INTERVALS = 100
WIDE_PATHS = 100_000
WIDE_RECORD = 4
CHALLENGERS = 16
CHALLENGER_PATHS = 20_000


def setup_play_wide(seed: int, workdir: Path) -> dict:
    spec = benchmark_problem()
    return {
        "seed": seed,
        "spec": spec,
        "grid": pde.SpatialGrid(orc.LOWER, orc.UPPER, WIDE_NODES),
        "partition": schedule.make_uniform_partition(0.0, orc.T, WIDE_INTERVALS),
    }


def round_play_wide(inp: dict) -> RoundResult:
    clock = Clock()
    spec, grid, part, seed = inp["spec"], inp["grid"], inp["partition"], inp["seed"]
    op, pde_err = _pde_op(clock, spec, grid)
    ops = [op]
    dp_ops, tables, dp_err = _dp_ops(clock, spec, grid, part)
    ops += dp_ops
    sim = clock(
        engine.simulate, spec, part,
        engine.RandomMode(engine.CoinSource(seed * 100 + 1)),
        tables.strategy_u, tables.strategy_v, WIDE_PATHS, SUBSTEPS,
        engine.NoiseSource(seed * 100), record=WIDE_RECORD,
    )
    checks = [orc.check_mc(sim.mean, sim.std_error, WIDE_INTERVALS, grid.dx)]
    for rec in sim.records:
        checks.append(orc.check_replay(
            rec.times, SUBSTEPS, rec.substep_states, rec.u_actions, rec.v_actions,
            rec.noise, rec.payoff,
        ))
    ops.append(Op("engine.simulate", checks))
    for side, strategy in (("u", tables.strategy_u), ("v", tables.strategy_v)):
        report = clock(
            engine.exploitability, spec, part, "random", side, strategy,
            CHALLENGERS, seed, tables=tables, paths=CHALLENGER_PATHS, substeps=SUBSTEPS,
        )
        dp = report.results[0]
        if dp.label != "dp_best_response":
            raise RuntimeError("exploitability roster no longer starts with dp_best_response")
        for r in report.results:
            ops.append(Op(f"challenger.{side}.{r.label}", [orc.check_challenger(
                r.label, side, r.mean, r.std_error, dp.mean, dp.std_error)]))
    return RoundResult(ops, clock, {
        "pde_err": pde_err, "dp_err": dp_err, "mc_se": sim.std_error,
    })


# --- marks_long -------------------------------------------------------------------------

LONG_NODES = 641
LONG_INTERVALS = 1600
LONG_BLOCK = 40
LONG_PATHS = 10_000
# Blocks last 40 * T / 1600 = 0.0125 and, at p = 1/2, hold exactly half
# ones, so epsilon may sit anywhere in [0.0125, 0.025): one flipped mark
# moves a block's fraction by 1/40 = 0.025 and is caught.
LONG_EPSILON = 0.02
# The simulate command keeps the CLI's default noise and coin seeds, so no
# input of it depends on the benchmark seed: its MC-vs-DP check fails by a
# fault of the lattice at dx^2/dt ~ 2, and must fail for the program's sake
# and not for the draw's.  The seed picks the Hamiltonian's sample points.
COMMANDS = ("schedule", "hamiltonian", "pde", "dp", "simulate")


def config_text(seed: int) -> str:
    rng = np.random.default_rng(seed)
    grads = ", ".join(repr(float(g)) for g in rng.uniform(-2.0, 2.0, 3))
    hesses = ", ".join(repr(float(h)) for h in rng.uniform(-2.0, 2.0, 3))
    return f"""\
problem.coefficients.family = bilinear
problem.coefficients.params = {orc.KAPPA!r}, {orc.S0!r}
problem.payoff.family = cosine
problem.payoff.params = 1.0, 1.0
problem.priority.family = constant
problem.priority.params = {orc.P!r}
problem.actions.u = -1, 1
problem.actions.v = -1, 1
problem.horizon = {orc.T!r}
discretization.grid.lower = {orc.LOWER!r}
discretization.grid.upper = {orc.UPPER!r}
discretization.grid.nodes = {LONG_NODES}
discretization.partition.n = {LONG_INTERVALS}
discretization.block = {LONG_BLOCK}
hamiltonian.grads = {grads}
hamiltonian.hessians = {hesses}
run.mode = deterministic
run.epsilon = {LONG_EPSILON!r}
run.paths = {LONG_PATHS}
run.substeps = {SUBSTEPS}
dp.write_strategies = 1
output.prefix = marks
"""


def setup_marks_long(seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "marks_long.cfg"
    cfg.write_text(config_text(seed), encoding="utf-8")
    return {"seed": seed, "config": cfg, "out": workdir / "out"}


def read_table(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _dict_row(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return next(csv.DictReader(fh))


def _marks_checkers(out: Path, metrics: dict) -> dict:
    """Output checks per CLI command; the error metrics go into ``metrics``."""
    xs = orc.grid_xs(LONG_NODES)
    dx = float(xs[1] - xs[0])

    def schedule_checks():
        return [orc.check_schedule_rows(read_table(out / "marks_schedule.csv"),
                                        read_table(out / "marks_density.csv"), LONG_EPSILON)]

    def hamiltonian_checks():
        return [orc.check_hamiltonian_rows(read_table(out / "marks_hamiltonian.csv"))]

    def pde_checks():
        table = read_table(out / "marks_pde.csv")
        summary = _dict_row(out / "marks_pde_summary.csv")
        check, metrics["pde_err"] = orc.check_pde(xs, table[0, 1:], float(summary["dt"]))
        return [orc.check_bounded("pde_slices_bounded", table[:, 1:]), check]

    def dp_checks():
        values = read_table(out / "marks_dp_values.csv")
        summary = _dict_row(out / "marks_dp_summary.csv")
        check, metrics["dp_err"] = orc.check_dp(xs, values[0, 1:], LONG_INTERVALS, marks=True)
        return [
            orc.check_bounded("dp_values_bounded", values[:, 1:]),
            orc.check_order(float(summary["max_order_violation"])),
            check,
            orc.check_strategy_rows(read_table(out / "marks_dp_strategies.csv"),
                                    LONG_NODES, LONG_BLOCK, LONG_INTERVALS),
        ]

    def simulate_checks():
        row = _dict_row(out / "marks_simulate.csv")
        mean, se = float(row["mean"]), float(row["std_error"])
        metrics["mc_se"] = se
        return [
            orc.check_mc(mean, se, LONG_INTERVALS, dx, marks=True),
            orc.check_mc_vs_dp(mean, se, float(row["dp_value_at_start"])),
        ]

    return {"schedule": schedule_checks, "hamiltonian": hamiltonian_checks,
            "pde": pde_checks, "dp": dp_checks, "simulate": simulate_checks}


def round_marks_long(inp: dict) -> RoundResult:
    clock = Clock()
    cfg, out = str(inp["config"]), inp["out"]
    codes = {c: clock(cli.main, [c, "--config", cfg, "--out", str(out)]) for c in COMMANDS}
    metrics = {}
    checkers = _marks_checkers(out, metrics)
    ops = []
    for command in COMMANDS:
        code = codes[command]
        checks = [orc.Check("exit_code", code == 0, f"exit code {code}")]
        if code == 0:  # a failed command leaves no outputs to read
            checks += checkers[command]()
        fault = "mc_vs_dp" if command == "simulate" else None
        ops.append(Op(f"cli.{command}", checks, known_fault=fault))
    return RoundResult(ops, clock, metrics)


WORKLOADS = {
    "reference_fine": (setup_reference_fine, round_reference_fine),
    "play_wide": (setup_play_wide, round_play_wide),
    "marks_long": (setup_marks_long, round_marks_long),
}
