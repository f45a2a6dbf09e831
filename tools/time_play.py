"""Median CPU time of simulate and exploitability on the benchmark game.

Usage: python3 tools/time_play.py [R]

Builds the random-rule lattice DP of configs/benchmark.cfg (p = 0.5) on
[-8, 8] at 641 nodes x 100 intervals, then times, R times each (default
5), with BLAS on one thread:
- simulate of the saddle strategies, 100k paths x 4 Euler sub-steps;
- the same simulate with the drift swapped for the state-dependent affine
  family b = -x, which evaluates its coefficients at every sub-step;
- exploitability for each frozen side, 16 challengers x 20k paths x 4
  sub-steps.
It prints the median CPU seconds of each call alone.
"""
import dataclasses
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from isaacslab import cli, config, engine, pde, schedule  # noqa: E402
from isaacslab.problem import CoefficientSpec  # noqa: E402

repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
spec = cli.problem_from_config(config.load_config(ROOT / "configs" / "benchmark.cfg"))
grid = pde.SpatialGrid(-8.0, 8.0, 641)
part = schedule.make_uniform_partition(0.0, spec.horizon, 100)
tables = engine.dp_value_random(spec, part, engine.build_lattice(spec, grid, part))
affine = dataclasses.replace(
    spec, coefficients=CoefficientSpec("affine", (0.0, -1.0, np.sqrt(2.0)), dim=1, noise_dim=1)
)
calls = {
    f"simulate 100k{label}": lambda game=game: engine.simulate(
        game, part, engine.RandomMode(engine.CoinSource(1)), tables.strategy_u,
        tables.strategy_v, 100_000, 4, engine.NoiseSource(0),
    )
    for label, game in (("", spec), (" affine", affine))
}
for side, strategy in (("u", tables.strategy_u), ("v", tables.strategy_v)):
    calls[f"exploitability {side} 16x20k"] = lambda side=side, strategy=strategy: (
        engine.exploitability(spec, part, "random", side, strategy, 16, 1,
                              tables=tables, paths=20_000, substeps=4)
    )
print("641 nodes x 100 intervals, median CPU s over", repeats, "runs")
for name, call in calls.items():
    runs = []
    for _ in range(repeats):
        c0 = time.process_time()
        call()
        runs.append(time.process_time() - c0)
    print(f"{name:26s} {float(np.median(runs)):8.3f}")
