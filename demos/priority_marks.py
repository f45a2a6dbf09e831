#!/usr/bin/env python3
"""Deterministic priority schedules: marks, blocks, and density checks.

A randomized rule flips a coin with success probability p(t) each interval.
The deterministic substitute pre-commits a 0/1 mark per interval, chosen so
that within every block of consecutive intervals the fraction of 1-marks
tracks p at the block start.  This script builds such a schedule for a
priority that ramps linearly in time, prints the mark pattern block by
block, and runs the density audit at a few tolerances.
"""

import numpy as np

from isaacslab import (
    PrioritySpec,
    check_density,
    make_marks,
    make_uniform_partition,
)

horizon = 1.0
n_intervals = 40
block = 8

# p(t) = 0.2 + 0.6 t: the maximizer's lead probability grows over the window.
prio = PrioritySpec("linear_time", (0.2, 0.6), dim=1)
partition = make_uniform_partition(0.0, horizon, n_intervals)
marks, subgrid = make_marks(partition, prio, block)

print(f"partition: {n_intervals} intervals on [0, {horizon}], blocks of {block}")
print()
print("block  t_start  target p  marks                     ones/len")
blocks = subgrid.block_slices()
starts = partition.times[[lo for lo, _ in blocks]]
for (lo, hi), t0, target in zip(blocks, starts, prio.time_values(starts)):
    bits = "".join(str(int(m)) for m in marks.array[lo:hi])
    frac = marks.array[lo:hi].mean()
    print(f"{lo // block:5d}  {t0:7.3f}  {target:8.3f}  {bits:24s}  {frac:.3f}")
print()

span = partition.times[-1] - partition.times[0]
print("density audit: every block must be short and its 1-fraction must")
print("sit within epsilon of the priority at the block start")
for eps in (0.5, 0.25, 0.1):
    report = check_density(partition, marks, subgrid, prio, eps)
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"  epsilon = {eps:5.2f}: {verdict}"
        f"  max block length = {report.max_block_length:.3f}"
        f"  max deviation = {report.max_deviation:.4f}"
    )
print()

# Finer partitions push both the block length and the deviation down.
print("refinement sweep at fixed epsilon = 0.1, block of sqrt(n) intervals")
for n in (40, 160, 640, 2560):
    b = max(1, int(round(np.sqrt(n))))
    part = make_uniform_partition(0.0, horizon, n)
    mk, sg = make_marks(part, prio, b)
    report = check_density(part, mk, sg, prio, 0.1)
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"  n = {n:5d}, block = {b:3d}: {verdict}"
        f"  max block length = {report.max_block_length:.4f}"
        f"  max deviation = {report.max_deviation:.4f}"
    )
