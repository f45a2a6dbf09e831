import numpy as np
import pytest

from isaacslab.problem import PrioritySpec
from isaacslab.schedule import (
    MarkSequence,
    Partition,
    ScheduleError,
    SubGrid,
    check_density,
    make_marks,
    make_uniform_partition,
)

seed = 0

HALF = PrioritySpec("constant", (0.5,), dim=1)


def test_uniform_partition():
    part = make_uniform_partition(0.0, 1.0, 4)
    assert np.allclose(part.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    assert part.intervals == 4
    assert np.allclose(part.steps, 0.25)
    assert part.mesh == 0.25
    assert part.start == 0.0 and part.end == 1.0


def test_partition_validation():
    with pytest.raises(ScheduleError):
        Partition(np.array([0.0]))
    with pytest.raises(ScheduleError):
        Partition(np.array([0.0, 0.0, 1.0]))  # not strictly increasing
    with pytest.raises(ScheduleError):
        make_uniform_partition(1.0, 1.0, 4)
    with pytest.raises(ScheduleError):
        make_uniform_partition(0.0, 1.0, 0)


def test_mark_sequence_validation():
    with pytest.raises(ScheduleError):
        MarkSequence(())
    with pytest.raises(ScheduleError):
        MarkSequence((0, 2))
    assert len(MarkSequence((1, 0, 1))) == 3


def test_subgrid_validation():
    with pytest.raises(ScheduleError):
        SubGrid((1, 5))
    with pytest.raises(ScheduleError):
        SubGrid((0, 5, 5))
    sg = SubGrid((0, 5, 10))
    assert sg.blocks == 2
    assert sg.block_slices() == [(0, 5), (5, 10)]


def test_marks_alternate_at_half():
    part = make_uniform_partition(0.0, 1.0, 100)
    marks, subgrid = make_marks(part, HALF, 10)
    assert marks.marks == (1, 0) * 50
    assert subgrid.indices == tuple(range(0, 101, 10))
    report = check_density(part, marks, subgrid, HALF, epsilon=0.1)
    assert report.passed
    # exact-fraction target: only floating accumulation noise remains
    assert report.max_deviation <= 1e-12
    assert report.max_block_length == pytest.approx(0.1)


def test_marks_hit_three_tenths_exactly():
    prio = PrioritySpec("constant", (0.3,), dim=1)
    part = make_uniform_partition(0.0, 1.0, 100)
    marks, subgrid = make_marks(part, prio, 10)
    for lo, hi in subgrid.block_slices():
        assert marks.array[lo:hi].sum() == 3
    report = check_density(part, marks, subgrid, prio, epsilon=0.1)
    assert report.passed
    assert report.max_deviation <= 1e-12


def test_odd_blocks_balance_across_seams():
    # p = 0.5 with 5-interval blocks cannot split evenly; the running
    # deficit carries over the seams so consecutive blocks compensate
    part = make_uniform_partition(0.0, 1.0, 25)
    marks, subgrid = make_marks(part, HALF, 5)
    counts = [int(marks.array[lo:hi].sum()) for lo, hi in subgrid.block_slices()]
    assert counts == [3, 2, 3, 2, 3]
    report = check_density(part, marks, subgrid, HALF, epsilon=0.2)
    assert report.passed


def test_marks_track_time_varying_priority():
    prio = PrioritySpec("linear_time", (0.0, 1.0), dim=1)  # p(t) = t
    part = make_uniform_partition(0.0, 1.0, 1000)
    marks, subgrid = make_marks(part, prio, 10)
    report = check_density(part, marks, subgrid, prio, epsilon=0.1)
    assert report.passed
    # early blocks want tiny fractions; one interval is a tenth of a block
    assert report.max_deviation <= 0.1


def test_short_final_block():
    part = make_uniform_partition(0.0, 1.0, 23)
    marks, subgrid = make_marks(part, HALF, 5)
    assert subgrid.indices == (0, 5, 10, 15, 20, 23)
    assert len(marks) == 23


def test_block_larger_than_partition_gives_one_block():
    part = make_uniform_partition(0.0, 1.0, 8)
    _, subgrid = make_marks(part, HALF, 100)
    assert subgrid.indices == (0, 8)
    _, subgrid = make_marks(part, HALF, 8)
    assert subgrid.indices == (0, 8)


def test_greedy_deviation_bounded_by_one_step():
    # the greedy rule never strays more than one interval's mass per block
    rng = np.random.default_rng(seed)
    for _ in range(50):
        n = int(rng.integers(5, 200))
        block = int(rng.integers(1, 12))
        target = float(rng.uniform())
        prio = PrioritySpec("constant", (target,), dim=1)
        part = make_uniform_partition(0.0, float(rng.uniform(0.5, 3.0)), n)
        marks, subgrid = make_marks(part, prio, block)
        report = check_density(part, marks, subgrid, prio, epsilon=10.0)
        step = part.mesh
        for dev, length in zip(report.deviations, report.block_lengths):
            assert dev <= step / length + 1e-12


@pytest.mark.parametrize("target", [0.5, 0.3, 1.0 / 3.0, 0.71, 0.9])
def test_refinement_never_hurts_density(target):
    prio = PrioritySpec("constant", (target,), dim=1)
    prev = None
    for n, block in ((40, 4), (80, 8), (160, 16), (320, 32)):
        part = make_uniform_partition(0.0, 2.0, n)
        marks, subgrid = make_marks(part, prio, block)
        dev = check_density(part, marks, subgrid, prio, epsilon=1.0).max_deviation
        if prev is not None:
            assert dev <= prev + 1e-12
        prev = dev


def test_all_ones_fail_a_tight_audit():
    part = make_uniform_partition(0.0, 1.0, 20)
    marks = MarkSequence((1,) * 20)
    subgrid = SubGrid((0, 20))
    report = check_density(part, marks, subgrid, HALF, epsilon=0.49)
    assert report.max_deviation == 0.5
    assert not report.passed
    assert check_density(part, marks, subgrid, HALF, epsilon=1.0).passed


def test_make_marks_validation():
    part = make_uniform_partition(0.0, 1.0, 10)
    with pytest.raises(ScheduleError):
        make_marks(part, HALF, 0)
    state_dep = PrioritySpec("logistic", (0.0, 0.0, 1.0), dim=1)
    with pytest.raises(ScheduleError):
        make_marks(part, state_dep, 5)


def test_check_density_validation():
    part = make_uniform_partition(0.0, 1.0, 10)
    marks, subgrid = make_marks(part, HALF, 5)
    for bad in (0.0, float("nan")):
        with pytest.raises(ScheduleError):
            check_density(part, marks, subgrid, HALF, epsilon=bad)
    with pytest.raises(ScheduleError):
        check_density(part, MarkSequence((1,) * 9), subgrid, HALF, epsilon=0.5)
    with pytest.raises(ScheduleError):
        check_density(part, marks, SubGrid((0, 5)), HALF, epsilon=0.5)
    state_dep = PrioritySpec("logistic", (0.0, 0.0, 1.0), dim=1)
    with pytest.raises(ScheduleError):
        check_density(part, marks, subgrid, state_dep, epsilon=0.5)
