#!/usr/bin/env python3
"""Show that each benchmark check accepts a sound output and rejects a perturbed one.

    python3 bench/selftest.py

Each case builds a real output, checks it, perturbs it in one place and
checks again.  The PDE and DP start slices of every workload, on that
workload's own grid, are shifted by +1e-2 and -1e-2; the other cases use
small real outputs.  The script exits 0 when every clean output passes
and every perturbed one is caught.  It runs in about a minute (most of it
the 2561-node PDE) and is not part of the pytest suite.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import shutil
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as orc  # noqa: E402
import workloads  # noqa: E402
from isaacslab import cli, engine, pde, schedule  # noqa: E402


def _real_fields(workdir: Path):
    """(workload, kind, xs, start slice, check) for the PDE and DP outputs of every workload.

    Each field is computed on its workload's own grid: direct calls for
    reference_fine (2561 nodes, DP at n = 100) and play_wide (641 nodes,
    n = 100), the CLI's ``pde`` and ``dp`` commands for marks_long.
    """
    spec = workloads.benchmark_problem()
    for name, nodes, n in (("reference_fine", workloads.FINE_NODES, max(workloads.FINE_LEVELS)),
                           ("play_wide", workloads.WIDE_NODES, workloads.WIDE_INTERVALS)):
        grid = pde.SpatialGrid(orc.LOWER, orc.UPPER, nodes)
        field_ = pde.solve(spec, grid, pde.cfl_max_dt(spec, grid))
        dt = float(field_.times[1] - field_.times[0])
        start = field_.initial_slice.copy()  # a view would keep the whole march alive
        del field_
        yield name, "pde", grid.xs, start, lambda xs, v, dt=dt: orc.check_pde(xs, v, dt)
        part = schedule.make_uniform_partition(0.0, orc.T, n)
        tables = engine.dp_value_random(spec, part, engine.build_lattice(spec, grid, part))
        yield (name, "dp", grid.xs, tables.value.initial_slice,
               lambda xs, v, n=n: orc.check_dp(xs, v, n))
    cfg, out = _marks_outputs(workdir, ("pde", "dp"))
    xs = orc.grid_xs(workloads.LONG_NODES)
    dt = float(workloads._dict_row(out / "marks_pde_summary.csv")["dt"])
    yield ("marks_long", "pde", xs, workloads.read_table(out / "marks_pde.csv")[0, 1:],
           lambda xs, v: orc.check_pde(xs, v, dt))
    yield ("marks_long", "dp", xs, workloads.read_table(out / "marks_dp_values.csv")[0, 1:],
           lambda xs, v: orc.check_dp(xs, v, workloads.LONG_INTERVALS, marks=True))


# At n = 1600 the DP tolerance (n dx^2 / 8 plus the mark term, 0.127) is
# far wider than 1e-2, and the DP sits 0.028 below exp(-T) at x = 0, so a
# shift upwards both passes the check and lowers dp_err: neither guard
# sees it.  Listed so the gap stays visible; the run fails if it closes.
KNOWN_GAPS = {"marks_long dp field shifted by +0.01"}


def _field_cases(workdir: Path):
    """Each real field shifted by +1e-2 and by -1e-2.

    A shifted field is caught if its check rejects it, or else if its
    error metric (pde_err, dp_err) grows by more than the metric's bound,
    so that a change making that shift reads as a regression.
    """
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for workload, kind, xs, values, check in _real_fields(workdir):
        metric = f"{kind}_err"
        clean, err = check(xs, values)
        for shift in (1e-2, -1e-2):
            label = f"{workload} {kind} field shifted by {shift:+g}"
            shifted, err_s = check(xs, values + shift)
            growth = (err_s - err) / err
            caught = not shifted.ok or growth > bounds[metric]
            known = label in KNOWN_GAPS
            if not shifted.ok:
                how = "rejected by the check"
            elif caught:
                how = (f"passes the check, caught by the {metric} bound "
                       f"({err:.4g} -> {err_s:.4g}, +{growth:.0%} > {bounds[metric]:.0%})")
            else:
                how = "not caught, a known gap" if known else "NOT caught"
            yield (clean.ok and caught != known,
                   f"{label}: clean -> {clean.ok} ({clean.detail}); {how} ({shifted.detail})")


def _marks_outputs(workdir: Path, commands) -> tuple[Path, Path]:
    """Run CLI commands on the marks_long config of seed 1; return (config, out dir)."""
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "marks.cfg"
    cfg.write_text(workloads.config_text(1), encoding="utf-8")
    out = workdir / "out"
    for command in commands:
        code = cli.main([command, "--config", str(cfg), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"isaacslab {command} exited {code}")
    return cfg, out


def _small_game():
    spec = workloads.benchmark_problem()
    grid = pde.SpatialGrid(orc.LOWER, orc.UPPER, 81)
    part = schedule.make_uniform_partition(0.0, orc.T, 10)
    lattice = engine.build_lattice(spec, grid, part)
    tables = engine.dp_value_random(spec, part, lattice)
    return spec, grid, part, lattice, tables


def _engine_cases():
    spec, grid, part, lattice, tables = _small_game()
    terminal = np.cos(grid.xs)
    yield ("slice leaves [-1, 1]", lambda v: orc.check_bounded("bounded", v),
           terminal, terminal + 1e-2)
    yield ("successor moved by 1e-9",
           lambda s: orc.check_successors(grid.xs, part.times, s),
           lattice.successors, _bump(lattice.successors, (3, 40, 1, 0, 2), 1e-9))
    sim = engine.simulate(spec, part, engine.RandomMode(engine.CoinSource(2)),
                          tables.strategy_u, tables.strategy_v, 8, 4,
                          engine.NoiseSource(1), record=2)
    rec = sim.records[1]

    def replay(noise):
        return orc.check_replay(rec.times, 4, rec.substep_states, rec.u_actions,
                                rec.v_actions, noise, rec.payoff)

    yield "one noise entry altered", replay, rec.noise, _bump(rec.noise, (5, 2, 0), 1e-6)
    centre = orc.play_value(100)
    tol = orc.mc_tolerance(100, 0.025, 0.0015)
    yield ("mc mean beyond its tolerance",
           lambda m: orc.check_mc(m, 0.0015, 100, 0.025),
           centre + 0.5 * tol, centre + 1.01 * tol)
    yield ("challenger beats dp by 5 SE",
           lambda m: orc.check_challenger("x", "u", m, 0.003, 0.6, 0.003),
           0.6, 0.6 - 5 * np.hypot(0.003, 0.003))
    yield ("dp error stops halving",
           orc.check_halving, {25: 0.047, 50: 0.024, 100: 0.012},
           {25: 0.047, 50: 0.024, 100: 0.020})


def _cli_cases(workdir: Path):
    _, out = _marks_outputs(workdir, ("schedule", "hamiltonian"))
    sched = workloads.read_table(out / "marks_schedule.csv")
    density = workloads.read_table(out / "marks_density.csv")
    flipped = sched.copy()
    flipped[17, 4] = 1.0 - flipped[17, 4]
    yield ("one mark flipped",
           lambda rows: orc.check_schedule_rows(rows, density, workloads.LONG_EPSILON),
           sched, flipped)
    ham = workloads.read_table(out / "marks_hamiltonian.csv")
    wrong = ham.copy()
    wrong[100, [3, 4]] = wrong[100, [4, 3]]
    yield "lower and upper swapped in one row", orc.check_hamiltonian_rows, ham, wrong


def _bump(arr, index, delta):
    out = np.array(arr, dtype=float, copy=True)
    out[index] += delta
    return out


def main() -> int:
    workdir = HERE.parent / ".bench_work" / f"selftest-{os.getpid()}"
    results = []
    try:
        for label, check, clean, perturbed in [*_engine_cases(), *_cli_cases(workdir)]:
            accepted, rejected = check(clean), check(perturbed)
            results.append((accepted.ok and not rejected.ok,
                            f"{label}: clean -> {accepted.ok} ({accepted.detail}); "
                            f"perturbed -> {rejected.ok} ({rejected.detail})"))
        results += _field_cases(workdir)
        for good, line in results:
            print(f"{'ok  ' if good else 'FAIL'} {line}")
        bad = sum(not good for good, _ in results)
        print(f"{len(results) - bad} of {len(results)} cases as expected: the clean output "
              f"accepted, the perturbed one caught, except the {len(KNOWN_GAPS)} known gap(s)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
