"""Median CPU time of the solver layers on the benchmark game.

Usage: python3 tools/time_layers.py [pde|dp|play|import ...] [R]

Every layer runs on configs/benchmark.cfg (p = 0.5) on [-8, 8], R times
per call (default 5), with BLAS on one thread, and prints the median CPU
seconds of the call alone; with no layer named, all four run.
- pde: pde.solve for the lower, upper and mixed Hamiltonians at 641, 1281
  and 2561 nodes at the CFL step, with the step count and each median
  divided by it in microseconds per step.
- dp: dp_value_random, which extracts strategy rows at every interval, and
  dp_value_deterministic on blocks of 40 intervals (10 at 100 intervals),
  which extracts them once per block, at 641 nodes x 1600 intervals and at
  2561 nodes x 100 intervals, with each median divided by the interval
  count in microseconds per interval, the unit of the pde rows' steps, as
  both run the same backward sweep; and the lattice's expect alone, called
  once per interval on the terminal slice, the interpolation and
  quadrature of one interval without its local games.  Building the
  lattice and the marks is not timed.
- play: on the random-rule DP at 641 nodes x 100 intervals, simulate of the
  saddle strategies with 100k paths and substeps = 4, which the benchmark
  game's state-free coefficients leave at one exact move per interval; the
  same with the drift swapped for the state-dependent affine family
  b = -x, which also makes one exact move per interval, by its
  Ornstein-Uhlenbeck step; the same with the priority swapped for the
  logistic p(x) = 1/(1 + e^-x), which reads p at every path's state (no
  per-interval table), with the saddle strategies of the benchmark game;
  and exploitability for each frozen side, 16 challengers x 20k paths
  with substeps = 4; then each kind of roster lane alone, per frozen side:
  the roster's Markov challengers (saddle, perturbed and random tables,
  each resolved once per coin face and node) and its hash-feedback
  challengers (resolved per path), built by engine._roster and played in
  one engine._play pass on exploitability's seeds (coins seed * 7000,
  noise seed * 9000), the pass alone timed.  Each simulate row also gives the Gaussian noise
  draws of one call and the md5 of its payoff bytes: equal digests in two
  checkouts mean bitwise-equal payoffs.  Each exploitability row also
  gives the peak resident set (VmHWM, Linux) of a fresh subprocess that
  sets up the same inputs and makes the call once, with its peak after
  set-up alone, the Gaussian noise draws the call makes, and the md5 of
  its roster's (label, mean.hex(), std_error.hex()) rows: equal digests in
  two checkouts mean every challenger's mean and SE agree bitwise.
- import: R fresh interpreters, each importing numpy and then isaacslab.cli
  with BLAS on one thread, as `bench/run.py --setup-only` does inside
  setup_s; the CPU of the whole interpreter (user + system, from the
  child's rusage) and of each import alone.  With PYTHONDONTWRITEBYTECODE
  set, every interpreter compiles the package from source.
"""
import dataclasses
import hashlib
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from isaacslab import cli, config, engine, pde, schedule  # noqa: E402
from isaacslab.problem import CoefficientSpec, PrioritySpec  # noqa: E402


def median_cpu(call, repeats: int) -> float:
    runs = []
    for _ in range(repeats):
        c0 = time.process_time()
        call()
        runs.append(time.process_time() - c0)
    return float(np.median(runs))


def benchmark_spec():
    return cli.problem_from_config(config.load_config(ROOT / "configs" / "benchmark.cfg"))


def time_pde(spec, repeats: int) -> None:
    modes = ("lower", "upper", "mixed")
    print("nodes  steps  " + "  ".join(f"{mode:>17}" for mode in modes)
          + "   (median CPU s, us per step)")
    for nodes in (641, 1281, 2561):
        grid = pde.SpatialGrid(-8.0, 8.0, nodes)
        dt = pde.cfl_max_dt(spec, grid)
        steps = []

        def march(mode):
            steps.append(pde.solve(spec, grid, dt, hamiltonian=mode).times.size - 1)

        medians = [median_cpu(lambda mode=mode: march(mode), repeats) for mode in modes]
        per_step = [f"{s:8.3f} ({1e6 * s / steps[0]:6.1f})" for s in medians]
        print(f"{nodes:5d}  {steps[0]:5d}  " + "  ".join(per_step))


def time_dp(spec, repeats: int) -> None:
    print("nodes  intervals            random     deterministic            expect   "
          "(median CPU s over", repeats, "runs, us per interval)")
    for nodes, intervals, block in ((641, 1600, 40), (2561, 100, 10)):
        grid = pde.SpatialGrid(-8.0, 8.0, nodes)
        part = schedule.make_uniform_partition(0.0, spec.horizon, intervals)
        lattice = engine.build_lattice(spec, grid, part)
        marks, subgrid = schedule.make_marks(part, spec.priority, block)
        rand = median_cpu(lambda: engine.dp_value_random(spec, part, lattice), repeats)
        det = median_cpu(
            lambda: engine.dp_value_deterministic(spec, part, marks, subgrid, lattice), repeats
        )
        terminal = spec.payoff_values(grid.xs[:, None])
        alone = median_cpu(lambda: [lattice.expect(k, terminal) for k in range(intervals)],
                           repeats)
        per_interval = [f"{s:8.3f} ({1e6 * s / intervals:6.1f})" for s in (rand, det, alone)]
        print(f"{nodes:5d}  {intervals:9d}  " + "  ".join(per_interval))


def play_inputs(spec):
    """The partition and random-rule DP tables that play runs on."""
    grid = pde.SpatialGrid(-8.0, 8.0, 641)
    part = schedule.make_uniform_partition(0.0, spec.horizon, 100)
    return part, engine.dp_value_random(spec, part, engine.build_lattice(spec, grid, part))


def exploit(spec, part, tables, side: str):
    strategy = tables.strategy_u if side == "u" else tables.strategy_v
    return engine.exploitability(spec, part, "random", side, strategy, 16, 1,
                                 tables=tables, paths=20_000, substeps=4)


def roster_pairs(spec, part, tables, side: str, kind: str) -> list:
    """The (strat_u, strat_v) pairs of exploitability's roster against ``side``'s frozen
    saddle strategy, kept to the hash-feedback challengers or to the Markov ones."""
    strategy = tables.strategy_u if side == "u" else tables.strategy_v
    roster = engine._roster(spec, part, "v" if side == "u" else "u", 16, 1, tables)
    challengers = [build() for label, build in roster
                   if label.startswith("feedback_") == (kind == "feedback")]
    return [(strategy, c) if side == "u" else (c, strategy) for c in challengers]


def roster_lane_count(spec, part, tables, kind: str) -> int:
    return len(roster_pairs(spec, part, tables, "u", kind))


def roster_lanes(spec, part, tables, side: str, kind: str) -> float:
    """CPU s of one engine._play pass of one kind of roster lane, on exploitability's seeds."""
    pairs = roster_pairs(spec, part, tables, side, kind)
    c0 = time.process_time()
    engine._play(spec, part, engine.RandomMode(engine.CoinSource(7000)), pairs, 20_000, 4,
                 engine.NoiseSource(9000), 0)
    return time.process_time() - c0


def roster_digest(report) -> str:
    """md5 of one exploitability report's (label, mean.hex(), std_error.hex()) rows."""
    rows = "".join(f"{r.label},{r.mean.hex()},{r.std_error.hex()}\n" for r in report.results)
    return hashlib.md5(rows.encode()).hexdigest()


def peak_mb() -> float:
    """This process's peak resident set in MB (kB / 1024, as tools/cli_peak.py prints), from VmHWM.

    A child's ru_maxrss also counts the resident set of the parent it was
    forked from, which here would hide the call's own peak, so the high
    water mark of the process's own address space is read instead.
    """
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024  # kB


def exploit_peak(side: str) -> None:
    """Print the set-up peak MB, the peak MB after one exploitability call and its noise draws."""
    spec = benchmark_spec()
    part, tables = play_inputs(spec)
    setup = peak_mb()
    sources = []

    class CountedNoise(engine.NoiseSource):
        def __init__(self, seed):
            super().__init__(seed)
            sources.append(self)

    engine.NoiseSource = CountedNoise
    exploit(spec, part, tables, side)
    print(setup, peak_mb(), sum(s.draws for s in sources))


def fresh_exploit_peak(side: str) -> tuple[float, float, int]:
    """:func:`exploit_peak` in a new interpreter, so no earlier call's peak counts."""
    code = f"import time_layers; time_layers.exploit_peak({side!r})"
    out = subprocess.run([sys.executable, "-c", code], cwd=Path(__file__).resolve().parent,
                         capture_output=True, text=True, check=True).stdout.split()
    return float(out[0]), float(out[1]), int(out[2])


def time_play(spec, repeats: int) -> None:
    part, tables = play_inputs(spec)
    affine = dataclasses.replace(
        spec,
        coefficients=CoefficientSpec("affine", (0.0, -1.0, np.sqrt(2.0)), dim=1, noise_dim=1),
    )
    logistic = dataclasses.replace(spec, priority=PrioritySpec("logistic", (0.0, 0.0, 1.0), dim=1))
    print("641 nodes x 100 intervals, median CPU s over", repeats, "runs")
    print(f"{'':26s} {'CPU s':>8s} {'noise draws':>12s} {'payoff md5':>32s}")
    for label, game in (("", spec), (" affine", affine), (" logistic", logistic)):
        runs = []

        def call(game=game):
            noise = engine.NoiseSource(0)
            runs.append((noise, engine.simulate(
                game, part, engine.RandomMode(engine.CoinSource(1)), tables.strategy_u,
                tables.strategy_v, 100_000, 4, noise,
            )))

        cpu = median_cpu(call, repeats)
        noise, result = runs[-1]
        digest = hashlib.md5(result.payoffs.tobytes()).hexdigest()
        print(f"{f'simulate 100k{label}':26s} {cpu:8.3f} {noise.draws:12d} {digest}")
    print(f"{'':26s} {'CPU s':>8s} {'setup MB':>9s} {'peak MB':>8s} {'noise draws':>12s} "
          f"{'roster md5':>32s}")
    for side in ("u", "v"):
        reports = []
        cpu = median_cpu(lambda side=side: reports.append(exploit(spec, part, tables, side)),
                         repeats)
        setup, peak, draws = fresh_exploit_peak(side)
        print(f"{f'exploitability {side} 16x20k':26s} {cpu:8.3f} {setup:9.2f} {peak:8.2f} "
              f"{draws:12d} {roster_digest(reports[-1])}")
    print(f"{'':26s} {'u CPU s':>8s} {'v CPU s':>8s}")
    for kind in ("markov", "feedback"):
        cpus = [np.median([roster_lanes(spec, part, tables, side, kind) for _ in range(repeats)])
                for side in ("u", "v")]
        count = roster_lane_count(spec, part, tables, kind)
        print(f"{f'roster {kind} {count}x20k':26s} {cpus[0]:8.3f} {cpus[1]:8.3f}")


_IMPORT_CLI = """
import time
c0 = time.process_time()
import numpy
c1 = time.process_time()
import isaacslab.cli
print(c1 - c0, time.process_time() - c1)
"""


def import_cpu() -> tuple[float, float, float]:
    """CPU s of one fresh interpreter importing isaacslab.cli: whole, numpy, the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = subprocess.run([sys.executable, "-c", _IMPORT_CLI], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    whole = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    return whole, float(out[0]), float(out[1])


def time_import(spec, repeats: int) -> None:
    runs = np.array([import_cpu() for _ in range(repeats)])
    print("fresh interpreter importing isaacslab.cli, median CPU s over", repeats, "runs")
    print(f"{'interpreter':>12s} {'numpy':>8s} {'isaacslab':>10s}")
    whole, numpy_s, package_s = np.median(runs, axis=0)
    print(f"{whole:12.3f} {numpy_s:8.3f} {package_s:10.3f}")


LAYERS = {"pde": time_pde, "dp": time_dp, "play": time_play, "import": time_import}


def main(args: list[str]) -> None:
    repeats = int(args.pop()) if args and args[-1].isdigit() else 5
    unknown = [name for name in args if name not in LAYERS]
    if unknown:
        sys.exit(f"unknown layer {unknown[0]!r}; choose from {', '.join(LAYERS)}")
    spec = benchmark_spec()
    for name in args or LAYERS:
        LAYERS[name](spec, repeats)


if __name__ == "__main__":
    main(sys.argv[1:])
