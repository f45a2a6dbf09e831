"""Median CPU time of the lattice DP sweeps on the benchmark game.

Usage: python3 tools/time_dp.py [R]

Builds the lattice of configs/benchmark.cfg (p = 0.5) on [-8, 8] at
641 nodes x 1600 intervals and at 2561 nodes x 100 intervals, then times,
R times each (default 5), with BLAS on one thread:
- dp_value_random, which extracts strategy rows at every interval;
- dp_value_deterministic on blocks of 40 intervals (10 at 100 intervals),
  which extracts them once per block.
It prints the median CPU seconds of each sweep alone; building the lattice
and the marks is not timed.
"""
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

repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
spec = cli.problem_from_config(config.load_config(ROOT / "configs" / "benchmark.cfg"))
print("nodes  intervals    random  deterministic   (median CPU s over", repeats, "runs)")
for nodes, intervals, block in ((641, 1600, 40), (2561, 100, 10)):
    grid = pde.SpatialGrid(-8.0, 8.0, nodes)
    part = schedule.make_uniform_partition(0.0, spec.horizon, intervals)
    lattice = engine.build_lattice(spec, grid, part)
    marks, subgrid = schedule.make_marks(part, spec.priority, block)
    calls = (
        lambda: engine.dp_value_random(spec, part, lattice),
        lambda: engine.dp_value_deterministic(spec, part, marks, subgrid, lattice),
    )
    medians = []
    for call in calls:
        runs = []
        for _ in range(repeats):
            c0 = time.process_time()
            call()
            runs.append(time.process_time() - c0)
        medians.append(float(np.median(runs)))
    print(f"{nodes:5d}  {intervals:9d}  {medians[0]:8.3f}  {medians[1]:13.3f}")
