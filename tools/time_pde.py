"""Median CPU time of pde.solve per Hamiltonian mode and grid size on the benchmark game.

Usage: python3 tools/time_pde.py [R]

Solves configs/benchmark.cfg (p = 0.5) on [-8, 8] at 641, 1281 and 2561
nodes at the CFL step, R times each (default 5), with BLAS on one thread,
and prints the median CPU seconds of the solve alone.
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

from isaacslab import cli, config, pde  # noqa: E402

repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
spec = cli.problem_from_config(config.load_config(ROOT / "configs" / "benchmark.cfg"))
modes = ("lower", "upper", "mixed")
print("nodes  " + "  ".join(f"{mode:>8}" for mode in modes) + "   (median CPU s)")
for nodes in (641, 1281, 2561):
    grid = pde.SpatialGrid(-8.0, 8.0, nodes)
    dt = pde.cfl_max_dt(spec, grid)
    medians = []
    for mode in modes:
        runs = []
        for _ in range(repeats):
            c0 = time.process_time()
            pde.solve(spec, grid, dt, hamiltonian=mode)
            runs.append(time.process_time() - c0)
        medians.append(float(np.median(runs)))
    print(f"{nodes:5d}  " + "  ".join(f"{s:8.3f}" for s in medians))
