#!/usr/bin/env python3
"""Backward induction on the lattice versus the finite-difference solver.

Same benchmark game both ways: dX = 4 u v dt + sqrt(2) dW with u, v in
{-1, +1}, cosine terminal payoff, priority p = 0.5.  The finite-difference
scheme integrates the blended Hamiltonian down from the terminal condition;
the lattice runs discrete backward induction over a Gauss-Hermite transition
model, once with per-interval coins and once with a pre-committed mark
schedule.  Refining the time partition pulls both lattice values onto the
PDE solution.  Timings go to stderr, so stdout is the same on every run.
"""

import sys
import time

import numpy as np

from isaacslab import (
    ActionSet,
    CoefficientSpec,
    MarkSequence,
    PayoffSpec,
    PrioritySpec,
    ProblemSpec,
    SpatialGrid,
    SubGrid,
    build_lattice,
    cfl_max_dt,
    dp_value_deterministic,
    dp_value_random,
    make_marks,
    make_uniform_partition,
    solve,
)

spec = ProblemSpec(
    coefficients=CoefficientSpec("bilinear", (4.0, float(np.sqrt(2.0))), dim=1, noise_dim=1),
    payoff=PayoffSpec("cosine", (1.0, 1.0), dim=1),
    priority=PrioritySpec("constant", (0.5,), dim=1),
    actions_u=ActionSet.from_values((-1.0, 1.0)),
    actions_v=ActionSet.from_values((-1.0, 1.0)),
    horizon=0.5,
)

grid = SpatialGrid(-8.0, 8.0, 641)
window = np.abs(grid.xs) <= 2.0  # compare away from the clamped boundary

dt = cfl_max_dt(spec, grid)
t0 = time.perf_counter()
ref = solve(spec, grid, dt, hamiltonian="mixed")
ref0 = ref.values[0]
print(f"PDE reference: {grid.nodes} nodes, dt = {dt:.2e}, {len(ref.times)} time slices")
print(f"  solved in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
print(f"  value at (t=0, x=0): {ref.value_at(0.0, 0.0):+.6f}")
print()

print("lattice backward induction, sup-norm error against the PDE on |x| <= 2")
print("    n  block   random gap   marks gap")
for n in (25, 50, 100, 200):
    block = max(1, int(round(np.sqrt(n))))
    partition = make_uniform_partition(0.0, spec.horizon, n)
    t0 = time.perf_counter()
    lattice = build_lattice(spec, grid, partition)
    rand = dp_value_random(spec, partition, lattice)
    marks, subgrid = make_marks(partition, spec.priority, block)
    det = dp_value_deterministic(spec, partition, marks, subgrid, lattice)
    elapsed = time.perf_counter() - t0
    rand_gap = np.max(np.abs(rand.value.values[0][window] - ref0[window]))
    det_gap = np.max(np.abs(det.value.values[0][window] - ref0[window]))
    print(f"  {n:3d}  {block:5d}   {rand_gap:.4e}  {det_gap:.4e}")
    print(f"  n = {n}: lattice and both DPs in {elapsed:.2f} s", file=sys.stderr)
print()

print("the one-sided lattice values bracket the blend at every node and slice:")
n = 100
partition = make_uniform_partition(0.0, spec.horizon, n)
lattice = build_lattice(spec, grid, partition)
mixed = dp_value_random(spec, partition, lattice).value.values
# mark 1 in every interval is the p == 1 (lower) chain, mark 0 the p == 0 (upper) one
whole = SubGrid((0, n))
lower = dp_value_deterministic(spec, partition, MarkSequence((1,) * n), whole, lattice)
upper = dp_value_deterministic(spec, partition, MarkSequence((0,) * n), whole, lattice)
lower, upper = lower.value.values, upper.value.values
print(f"  min(mixed - lower) over all slices = {np.min(mixed - lower):+.2e}")
print(f"  min(upper - mixed) over all slices = {np.min(upper - mixed):+.2e}")
print(f"  max(upper - lower) on |x| <= 2     = {np.max(upper[:, window] - lower[:, window]):.4e}")
print(f"  at (t=0, x=0): lower {lower[0, grid.nodes // 2]:+.6f}, "
      f"mixed {mixed[0, grid.nodes // 2]:+.6f}, upper {upper[0, grid.nodes // 2]:+.6f}")
