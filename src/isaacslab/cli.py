"""Command-line front end.

Subcommands: static, hamiltonian, schedule, pde, dp, simulate, converge.
All take ``--config`` (key-value text), ``--out`` (output directory),
optional ``--seed`` (overrides the run.* seeds) and converge takes
``--levels``.  Each successful run writes its CSV outputs plus a manifest
holding the fully resolved config; feeding the manifest back as the
config replays the run bitwise.

Exit codes: 0 success, 2 bad config or invalid problem data, 3 time step
above the stability bound, 4 mark density audit failure, 5 numerical
blow-up.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import engine, pde, schedule, static_game
from .config import Config, ConfigError, load_config, write_manifest
from .csvio import write_csv
from .hamiltonian import hamiltonian_batch
from .problem import (
    ActionSet,
    CoefficientSpec,
    PayoffSpec,
    PrioritySpec,
    ProblemError,
    ProblemSpec,
)
from .schedule import ScheduleError

__all__ = [
    "main",
    "problem_from_config",
    "grid_from_config",
    "partition_from_config",
    "run_converge",
    "EXIT_OK",
    "EXIT_CONFIG",
    "EXIT_CFL",
    "EXIT_DENSITY",
    "EXIT_BLOWUP",
]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CFL = 3
EXIT_DENSITY = 4
EXIT_BLOWUP = 5


class _DensityFailure(Exception):
    def __init__(self, report: schedule.DensityReport):
        self.report = report
        super().__init__(
            f"density audit failed: max block length {report.max_block_length:.6g}, "
            f"max deviation {report.max_deviation:.6g}, epsilon {report.epsilon:.6g}"
        )


# --- config -> typed objects -------------------------------------------------------


def problem_from_config(cfg: Config) -> ProblemSpec:
    d = cfg.get_int("problem.coefficients.d", 1)
    d_prime = cfg.get_int("problem.coefficients.d_prime", 1)
    coeff = CoefficientSpec(
        family=cfg.get_str("problem.coefficients.family", required=True),
        params=cfg.get_floats("problem.coefficients.params", required=True),
        dim=d,
        noise_dim=d_prime,
    )
    payoff = PayoffSpec(
        family=cfg.get_str("problem.payoff.family", required=True),
        params=cfg.get_floats("problem.payoff.params", required=True),
        dim=d,
    )
    priority = PrioritySpec(
        family=cfg.get_str("problem.priority.family", required=True),
        params=cfg.get_floats("problem.priority.params", required=True),
        dim=d,
    )
    return ProblemSpec(
        coefficients=coeff,
        payoff=payoff,
        priority=priority,
        actions_u=ActionSet.from_values(cfg.get_floats("problem.actions.u", required=True)),
        actions_v=ActionSet.from_values(cfg.get_floats("problem.actions.v", required=True)),
        horizon=cfg.get_float("problem.horizon", required=True),
        start_time=cfg.get_float("problem.start.time", 0.0),
        start_state=cfg.get_floats("problem.start.state", (0.0,) * d),
    )


def grid_from_config(cfg: Config) -> pde.SpatialGrid:
    return pde.SpatialGrid(
        lower=cfg.get_float("discretization.grid.lower", required=True),
        upper=cfg.get_float("discretization.grid.upper", required=True),
        nodes=cfg.get_int("discretization.grid.nodes", required=True),
    )


def partition_from_config(cfg: Config, spec: ProblemSpec):
    n = cfg.get_int("discretization.partition.n", required=True)
    return schedule.make_uniform_partition(spec.start_time, spec.horizon, n)


def _seeds(cfg: Config) -> tuple[int, int]:
    return cfg.get_int("run.noise_seed", 1), cfg.get_int("run.coin_seed", 2)


def _prefix(cfg: Config, command: str) -> str:
    return cfg.get_str("output.prefix", command)


def _field_csv(path: Path, field: pde.ValueField, row_indices) -> None:
    """One row per time index; rows are built as they are written, not held."""
    header = ["time"] + [repr(float(x)) for x in field.grid.xs]
    rows = (
        [float(field.times[k])] + field.values[k].tolist() for k in row_indices
    )
    write_csv(path, header, rows)


# --- subcommand handlers --------------------------------------------------------------


def _cmd_static(cfg: Config, out: Path, prefix: str) -> list[str]:
    raw = cfg.get_str("static.matrix", required=True)
    try:
        mat = np.array(
            [[float(tok) for tok in row.split(",")] for row in raw.split(";")],
            dtype=float,
        )
    except ValueError as exc:
        raise ConfigError(f"static.matrix is not a numeric matrix: {raw!r}") from exc
    prio = cfg.get_float("static.prio", 0.5)
    game = static_game.LocalGameMatrix(mat)
    sad = static_game.saddle(game, prio)
    rows = [
        ["lower", "", sad.lower],
        ["upper", "", sad.upper],
        ["mixed", "", sad.mixed],
        ["prio", "", sad.prio],
        ["u_star", "", sad.u_star],
        ["v_star", "", sad.v_star],
    ]
    m, n = game.shape
    if m <= static_game.MAX_ENUMERABLE_ACTIONS and n <= static_game.MAX_ENUMERABLE_ACTIONS:
        supinf, infsup, residual = static_game.representation_residual(game, prio)
        rows += [
            ["supinf", "", supinf],
            ["infsup", "", infsup],
            ["residual", "", residual],
        ]
    rows += [["beta_star", i, int(sad.beta_star[i])] for i in range(m)]
    rows += [["alpha_star", j, int(sad.alpha_star[j])] for j in range(n)]
    name = f"{prefix}_static.csv"
    write_csv(out / name, ["quantity", "index", "value"], rows)
    return [name]


def _cmd_hamiltonian(cfg: Config, out: Path, prefix: str) -> list[str]:
    spec = problem_from_config(cfg)
    grid = grid_from_config(cfg)
    grads = cfg.get_floats("hamiltonian.grads", (-1.0, 0.0, 1.0))
    hessians = cfg.get_floats("hamiltonian.hessians", (-1.0, 0.0, 1.0))
    for key, vals in (("hamiltonian.grads", grads), ("hamiltonian.hessians", hessians)):
        if not np.all(np.isfinite(vals)):
            raise ConfigError(f"{key} entries must be finite, got {vals}")
    t = spec.start_time
    xs = grid.xs
    X = xs[:, None]
    rows = []
    for g in grads:
        G = np.full((xs.size, 1), g)
        for h in hessians:
            H = np.full((xs.size, 1, 1), h)
            low, up, mixed = hamiltonian_batch(spec, t, X, G, H)
            for j in range(xs.size):
                rows.append(
                    [float(xs[j]), g, h, float(low[j]), float(up[j]), float(mixed[j])]
                )
    name = f"{prefix}_hamiltonian.csv"
    write_csv(out / name, ["x", "grad", "hess", "lower", "upper", "mixed"], rows)
    return [name]


def _cmd_schedule(cfg: Config, out: Path, prefix: str) -> list[str]:
    spec = problem_from_config(cfg)
    part = partition_from_config(cfg, spec)
    block = cfg.get_int("discretization.block", required=True)
    epsilon = cfg.get_float("run.epsilon", required=True)
    marks, subgrid = schedule.make_marks(part, spec.priority, block)
    rows = []
    block_of = np.searchsorted(subgrid.indices, np.arange(part.intervals), side="right") - 1
    for k in range(part.intervals):
        rows.append(
            [
                k,
                float(part.times[k]),
                float(part.times[k + 1]),
                float(part.steps[k]),
                marks.marks[k],
                int(block_of[k]),
            ]
        )
    name = f"{prefix}_schedule.csv"
    write_csv(out / name, ["interval", "t_left", "t_right", "step", "mark", "block"], rows)
    report = schedule.check_density(part, marks, subgrid, spec.priority, epsilon)
    drows = []
    for i, (lo, hi) in enumerate(subgrid.block_slices()):
        drows.append(
            [
                i,
                float(part.times[lo]),
                float(report.block_lengths[i]),
                float(report.targets[i]),
                float(report.deviations[i]),
            ]
        )
    dname = f"{prefix}_density.csv"
    write_csv(
        out / dname,
        ["block", "t_start", "length", "target", "deviation"],
        drows,
    )
    if not report.passed:
        raise _DensityFailure(report)
    return [name, dname]


def _cmd_pde(cfg: Config, out: Path, prefix: str) -> list[str]:
    spec = problem_from_config(cfg)
    grid = grid_from_config(cfg)
    safety = cfg.get_float("run.dt_safety", 1.0)
    dt = safety * pde.cfl_max_dt(spec, grid)
    mode = cfg.get_str("pde.hamiltonian", "mixed")
    # a configured stride is checked before the march; only the default needs the step count
    stride = cfg.get_int("pde.output_stride")
    if stride is not None and stride < 1:
        raise ConfigError(f"pde.output_stride must be at least 1, got {stride}")
    field = pde.solve(spec, grid, dt, hamiltonian=mode)
    steps = field.times.size - 1
    if stride is None:
        stride = max(1, steps // 10)
    indices = sorted(set(range(0, steps + 1, stride)) | {steps})
    name = f"{prefix}_pde.csv"
    _field_csv(out / name, field, indices)
    sname = f"{prefix}_pde_summary.csv"
    # a zero-length horizon is solved in no step
    step = float(field.times[1] - field.times[0]) if steps else 0.0
    write_csv(
        out / sname,
        ["hamiltonian", "dt", "steps", "value_at_start"],
        [[mode, step, steps, field.value_at(spec.start_time, spec.start_state[0])]],
    )
    return [name, sname]


def _solve(
    spec: ProblemSpec,
    part: schedule.Partition,
    lattice: engine.TransitionModel,
    mode: str,
    block,
    epsilon: float | None,
    coin_seed: int,
):
    """Backward induction in one mode, plus the play rule that replays it.

    The deterministic mode lays marks in blocks of ``block`` intervals and
    audits their density against ``epsilon`` unless it is None; the random
    mode ignores both and plays coins seeded with ``coin_seed``.
    """
    if mode == "random":
        tables = engine.dp_value_random(spec, part, lattice)
        return tables, engine.RandomMode(engine.CoinSource(coin_seed))
    marks, subgrid = schedule.make_marks(part, spec.priority, block)
    if epsilon is not None:
        report = schedule.check_density(part, marks, subgrid, spec.priority, epsilon)
        if not report.passed:
            raise _DensityFailure(report)
    tables = engine.dp_value_deterministic(spec, part, marks, subgrid, lattice)
    return tables, engine.DeterministicMode(marks)


def _dp_from_config(cfg: Config, spec: ProblemSpec, coin_seed: int):
    """The lattice and the solve of the dp and simulate commands."""
    grid = grid_from_config(cfg)
    part = partition_from_config(cfg, spec)
    quad = cfg.get_int("discretization.quad_points", 3)
    lattice = engine.build_lattice(spec, grid, part, quad)
    mode = cfg.get_str("run.mode", "random")
    if mode == "random":
        block = epsilon = None
    elif mode == "deterministic":
        block = cfg.get_int("discretization.block", required=True)
        epsilon = cfg.get_float("run.epsilon")
    else:
        raise ConfigError(f"run.mode must be random or deterministic, got {mode!r}")
    return (part, lattice) + _solve(spec, part, lattice, mode, block, epsilon, coin_seed)


def _cmd_dp(cfg: Config, out: Path, prefix: str) -> list[str]:
    spec = problem_from_config(cfg)
    # dp plays no paths, so the coin seed of the returned play rule is unused
    part, lattice, tables, _ = _dp_from_config(cfg, spec, coin_seed=0)
    name = f"{prefix}_dp_values.csv"
    _field_csv(out / name, tables.value, range(part.intervals + 1))
    sname = f"{prefix}_dp_summary.csv"
    write_csv(
        out / sname,
        ["mode", "intervals", "nodes", "quad_points", "value_at_start",
         "max_order_violation", "max_protrusion"],
        [[tables.mode, part.intervals, tables.grid.nodes, lattice.quad_points,
          tables.value_at_start(spec.start_state[0]),
          tables.max_order_violation, lattice.max_protrusion]],
    )
    outputs = [name, sname]
    if cfg.get_int("dp.write_strategies", 0):
        xs = tables.grid.xs.tolist()
        u_plain, v_plain = tables.strategy_u.plain, tables.strategy_v.plain
        rows = (
            [start, x, u, v]
            for r, start in enumerate(tables.strategy_u.starts)
            for x, u, v in zip(xs, u_plain[r].tolist(), v_plain[r].tolist())
        )
        stname = f"{prefix}_dp_strategies.csv"
        write_csv(out / stname, ["interval_start", "x", "u_plain", "v_plain"], rows)
        outputs.append(stname)
    return outputs


def _cmd_simulate(cfg: Config, out: Path, prefix: str) -> list[str]:
    spec = problem_from_config(cfg)
    noise_seed, coin_seed = _seeds(cfg)
    part, _, tables, play = _dp_from_config(cfg, spec, coin_seed)
    paths = cfg.get_int("run.paths", 10000)
    record = cfg.get_int("run.record_paths", 0)
    # one trail point per interval: the paths CSV reads no sub-step, and no payoff does
    result = engine.simulate(
        spec, part, play, tables.strategy_u, tables.strategy_v,
        paths, 1, engine.NoiseSource(noise_seed), record=record,
    )
    dp_at_start = tables.value_at_start(spec.start_state[0])
    name = f"{prefix}_simulate.csv"
    write_csv(
        out / name,
        ["mode", "paths", "mean", "std_error", "dp_value_at_start", "gap"],
        [[tables.mode, paths, result.mean, result.std_error,
          dp_at_start, result.mean - dp_at_start]],
    )
    outputs = [name]
    if record:
        rows = (
            [i, k, t, x, u, v, coin, second]
            for i, recd in enumerate(result.records)
            for k, t, x, u, v, coin, second in zip(
                range(part.intervals), recd.times.tolist(), recd.states.tolist(),
                recd.u_actions.tolist(), recd.v_actions.tolist(),
                recd.coins.tolist(), recd.who_second.tolist(),
            )
        )
        rname = f"{prefix}_paths.csv"
        write_csv(
            out / rname,
            ["path", "interval", "t", "state", "u_action", "v_action", "coin", "v_saw_u"],
            rows,
        )
        outputs.append(rname)
    return outputs


def run_converge(cfg: Config) -> list[dict]:
    """Grid-refinement study: backward induction against one fine PDE reference.

    For each level n, builds the lattice, runs the configured modes,
    reports the sup-norm distance of the initial slice from the reference
    on the window |x - start| <= run.window, and cross-checks the value at
    the start point by simulating the extracted saddle profile (run.paths
    Monte Carlo paths).  The deterministic mode uses blocks of
    round(sqrt(n)) intervals and audits the mark density against
    run.epsilon when set.  A zero horizon (T equal to the start time)
    degenerates to the terminal condition: every value equals g exactly.
    """
    spec = problem_from_config(cfg)
    grid = grid_from_config(cfg)
    levels = cfg.get_ints("run.levels", (25, 50, 100))
    if len(levels) < 2:
        raise ConfigError("run.levels needs at least two refinement levels")
    window = cfg.get_float("run.window", 2.0)
    modes = cfg.get_str("run.mode", "random")
    mode_list = ["random", "deterministic"] if modes == "both" else [modes]
    for mode in mode_list:
        if mode not in ("random", "deterministic"):
            raise ConfigError("run.mode must be random, deterministic or both")
    x0 = spec.start_state[0]
    noise_seed, coin_seed = _seeds(cfg)
    paths = cfg.get_int("run.paths", 10000)
    if spec.horizon == spec.start_time:
        g0 = float(spec.payoff_values(np.array([[x0]]))[0])
        return [
            {
                "n": n, "mode": mode, "block": "",
                "sup_gap_window": 0.0,
                "dp_at_start": g0, "pde_at_start": g0,
                "mc_mean": g0, "mc_std_error": 0.0,
                "max_order_violation": 0.0, "max_protrusion": 0.0,
            }
            for n in levels for mode in mode_list
        ]
    safety = cfg.get_float("run.dt_safety", 1.0)
    dt = safety * pde.cfl_max_dt(spec, grid)
    reference = pde.solve(spec, grid, dt, hamiltonian="mixed")
    ref0 = reference.initial_slice
    xs = grid.xs
    in_window = np.abs(xs - x0) <= window
    if not np.any(in_window):
        raise ConfigError("run.window excludes every grid node")
    epsilon = cfg.get_float("run.epsilon")
    results = []
    for level_idx, n in enumerate(levels):
        part = schedule.make_uniform_partition(spec.start_time, spec.horizon, n)
        quad = cfg.get_int("discretization.quad_points", 3)
        lattice = engine.build_lattice(spec, grid, part, quad)
        for mode in mode_list:
            block = "" if mode == "random" else max(1, int(round(np.sqrt(n))))
            tables, play = _solve(
                spec, part, lattice, mode, block, epsilon, coin_seed + level_idx
            )
            gap = float(np.max(np.abs(tables.value.initial_slice[in_window] - ref0[in_window])))
            sim = engine.simulate(
                spec, part, play, tables.strategy_u, tables.strategy_v,
                paths, 1, engine.NoiseSource(noise_seed + level_idx),
            )
            results.append(
                {
                    "n": n,
                    "mode": mode,
                    "block": block,
                    "sup_gap_window": gap,
                    "dp_at_start": tables.value_at_start(x0),
                    "pde_at_start": reference.value_at(spec.start_time, x0),
                    "mc_mean": sim.mean,
                    "mc_std_error": sim.std_error,
                    "max_order_violation": tables.max_order_violation,
                    "max_protrusion": lattice.max_protrusion,
                }
            )
    return results


def _cmd_converge(cfg: Config, out: Path, prefix: str) -> list[str]:
    results = run_converge(cfg)
    header = [
        "n", "mode", "block", "sup_gap_window", "dp_at_start", "pde_at_start",
        "mc_mean", "mc_std_error", "max_order_violation", "max_protrusion",
    ]
    rows = [[r[h] for h in header] for r in results]
    name = f"{prefix}_converge.csv"
    write_csv(out / name, header, rows)
    return [name]


_HANDLERS = {
    "static": _cmd_static,
    "hamiltonian": _cmd_hamiltonian,
    "schedule": _cmd_schedule,
    "pde": _cmd_pde,
    "dp": _cmd_dp,
    "simulate": _cmd_simulate,
    "converge": _cmd_converge,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isaacslab",
        description="Discretized zero-sum games with priority rules: "
        "values, strategies, simulation, convergence.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="key-value config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override run.noise_seed/coin_seed")
        if name == "converge":
            p.add_argument("--levels", default=None,
                           help="comma-separated partition sizes, overrides run.levels")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = cfg.with_overrides(
                run__noise_seed=args.seed,
                run__coin_seed=args.seed + 1,
            )
        if getattr(args, "levels", None):
            cfg = cfg.with_overrides(run__levels=args.levels)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        prefix = _prefix(cfg, args.command)
        outputs = _HANDLERS[args.command](cfg, out, prefix)
        manifest = f"{prefix}_{args.command}_manifest.txt"
        write_manifest(out / manifest, cfg, args.command, outputs)
    except pde.CflError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CFL
    except _DensityFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENSITY
    except pde.BlowupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BLOWUP
    except (ConfigError, ProblemError, ScheduleError, pde.PdeError,
            engine.EngineError, static_game.StaticGameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
