import cmath
import tracemalloc

import numpy as np
import pytest

import pulsespec as ps
from pulsespec.lindblad import march
from conftest import drive, unfold


@pytest.fixture(scope="module")
def fig_grid():
    p = drive(8)
    g = ps.make_time_grid(p)
    return p, g, ps.propagate_trajectory(p, g), ps.build_correlator_grids(p, g)


def correlators(traj, block, i, side=0):
    """C1 and C2 of t node i over its theta range, as a 2 x (last-i+1)
    array: its populations times its row of the pair block; side=1 gives
    the pre-swap limits instead."""
    n_sub = block.shape[1] - 1
    last = len(traj) - 1
    pops = traj.diagonal(axis1=1, axis2=2).T
    return pops[:, i, None] * unfold(block, i % n_sub, last - i + 1, side)


def test_initial_condition_identity(fig_grid):
    p, g, traj, block = fig_grid
    for i in range(g.n_nodes):
        c1, c2 = correlators(traj, block, i)
        assert c1[0] == traj[i, 0, 0]
        assert c2[0] == traj[i, 1, 1]


def test_rows_span_one_pulse_pair(fig_grid):
    p, g, traj, block = fig_grid
    n_sub = g.substeps_per_interval
    assert block.shape == (2, n_sub + 1, 2 * n_sub)
    # the last column is theta = P*dt: the pulse there swaps the companion
    # away and row 0 back in, and every other value is the pair factor,
    # row 0's post-pulse value
    rows, before = block
    factor = rows[0, -1]
    assert rows[n_sub, -1] == 0.0 and before[0, -1] == 0.0
    assert np.max(np.abs(rows[:n_sub, -1] - factor)) <= 1e-15
    assert np.max(np.abs(before[1:, -1] - factor)) <= 1e-15
    assert factor == pytest.approx(np.exp(-p.gamma * p.tau), abs=1e-15)


def ge_march(m, start, length, p, g):
    """Post-pulse values and left limits of the ge element of a march."""
    stored, crossings = march(m, start, length, p, g)
    post = stored[:, 1, 0].copy()
    before = post.copy()
    before[crossings] = stored[crossings, 0, 1]
    return post, before


def assert_rows_periodic(p, g, block):
    """A row marched from any node equals its residue row, companions too:
    bit for bit over its first pulse pair, theta <= P*dt, and within
    rounding of factor times the pair before over the rest of its theta
    range. The block is finite, since a non-finite value would poison the
    sums even where its weight is zero."""
    n_sub = g.substeps_per_interval
    pair = 2 * n_sub
    last = g.n_nodes - 1
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    tol = 4 * np.finfo(float).eps
    for i in range(g.n_nodes):
        starts = [(seed, i % n_sub)]
        if i % n_sub == 0 and 0 < i < last:
            starts.append((ps.apply_pi_pulse(seed), n_sub))
        for m, row in starts:
            for side, got in enumerate(ge_march(m, i, last - i, p, g)):
                if row == n_sub:
                    # the companion records its theta = 0 value before the swap
                    got[0] = 1.0
                expected = unfold(block, row, last - i + 1, side)
                assert np.array_equal(got[:pair + 1], expected[:pair + 1])
                assert np.max(np.abs(got - expected)) <= tol
    assert np.all(np.isfinite(block))


def test_rows_are_periodic_in_the_start_node(fig_grid):
    p, g, traj, block = fig_grid
    assert_rows_periodic(p, g, block)


# (params, substeps) at the edges of the batched build
EDGE_GRIDS = {
    "one_pulse": (drive(1), None),         # the common march has length 0
    "pulse_free": (drive(0, free_time=1.0), None),
    "one_substep": (drive(8), 1),          # every node is a pulse node
    "odd_train": (drive(3, delta=2.2, tau=0.37), 7),
    "fine_grid": (drive(20), 80),
}


@pytest.mark.parametrize("name", sorted(EDGE_GRIDS))
def test_rows_are_periodic_on_edge_grids(name):
    p, substeps = EDGE_GRIDS[name]
    g = ps.make_time_grid(p, substeps)
    assert_rows_periodic(p, g, ps.build_correlator_grids(p, g))


@pytest.mark.parametrize("substeps", [1, 7, 20, 80])
def test_block_does_not_depend_on_the_train_length(substeps):
    # every train of three or more pulses marches the same pulse pair, so
    # one build can serve a sweep over train lengths at fixed delta, tau
    # and substeps; one or two pulses end the grid before the march does
    blocks = [ps.build_correlator_grids(p, ps.make_time_grid(p, substeps))
              for p in map(drive, (3, 4, 8, 81, 700))]
    for block in blocks[1:]:
        assert np.array_equal(block, blocks[0])


def test_same_interval_rotation(fig_grid):
    # inside one inter-pulse interval the c2 value is just the seeded
    # population times the free coherence factor
    p, g, traj, block = fig_grid
    i = 7          # t = 0.07, interval 0
    c2 = correlators(traj, block, i)[1]
    for j in range(12):
        theta = j * g.dt
        expected = traj[i, 1, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * theta)
        assert abs(c2[j] - expected) <= 1e-12


def test_odd_separation_vanishes(fig_grid):
    p, g, traj, block = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    c1, c2 = correlators(traj, block, i)
    # t + theta in interval 1: exactly one pulse crossed
    for j in range(n_sub - i + 1, 2 * n_sub - i):
        assert c2[j] == 0.0
        assert c1[j] == 0.0


def test_factorization_against_analytic_kernel(fig_grid):
    p, g, traj, block = fig_grid
    worst = 0.0
    for i in range(0, g.n_nodes - 1, 7):
        c1, c2 = correlators(traj, block, i)
        for j in range(0, c1.size, 5):
            f = ps.f_analytic(g.times[i], j * g.dt, p)
            worst = max(worst,
                        abs(c1[j] - f * traj[i, 0, 0]),
                        abs(c2[j] - f * traj[i, 1, 1]))
    assert worst <= 1e-9


def test_magnitude_decay(fig_grid):
    p, g, traj, block = fig_grid
    for i in (0, 13, 55):
        row = correlators(traj, block, i)[1]
        ref = abs(row[0])
        for j in range(row.size):
            value = abs(row[j])
            if value == 0.0:
                continue
            assert value == pytest.approx(ref * np.exp(-p.gamma * j * g.dt / 2),
                                          abs=1e-9)


def test_bounded_by_one(fig_grid):
    p, g, traj, block = fig_grid
    for i in range(g.n_nodes):
        assert np.max(np.abs(correlators(traj, block, i))) <= 1.0 + 1e-12
        assert np.max(np.abs(correlators(traj, block, i, 1))) <= 1.0 + 1e-12


def test_before_values_hold_left_limit(fig_grid):
    p, g, traj, block = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    j = n_sub - i      # theta lands exactly on the first pulse after t
    expected = traj[i, 1, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * j * g.dt)
    assert abs(correlators(traj, block, i, 1)[1][j] - expected) <= 1e-12
    # stored value at the crossing is post-pulse: the swapped-in component
    assert correlators(traj, block, i)[1][j] == 0.0


def test_pre_rows_cover_interior_pulse_nodes(fig_grid):
    p, g, traj, block = fig_grid
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    for i in range(n_sub, last, n_sub):
        # the companion row starts from the pre-pulse state: populations
        # of the stored (post-pulse) node swapped back
        pre = ps.apply_pi_pulse(traj[i])
        c2 = pre[1, 1] * unfold(block, n_sub, last - i + 1)
        assert c2[0] == traj[i, 0, 0]
        # the swap right after theta = 0 empties the first interval
        assert np.all(c2[1:n_sub] == 0.0)
        assert np.all(unfold(block, n_sub, n_sub, 1)[1:] == 0.0)


def test_no_pulse_rows_follow_free_kernel():
    p = drive(0, free_time=1.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    i = 30
    row = correlators(traj, ps.build_correlator_grids(p, g), i)[0]
    for j in (0, 11, row.size - 1):
        expected = traj[i, 0, 0] * cmath.exp((1j * p.delta - p.gamma / 2)
                                          * j * g.dt)
        assert abs(row[j] - expected) <= 1e-12


def build_peak(p, substeps):
    g = ps.make_time_grid(p, substeps)
    tracemalloc.start()
    try:
        ps.build_correlator_grids(p, g)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_pulses, substeps", [(80, 20), (20, 80)])
def test_build_peak_memory_is_bounded(n_pulses, substeps):
    # the rows span one pulse pair whatever the train length, so a train
    # ten times longer builds in the same memory; the grids are those of
    # the numeric benchmark workloads
    short = build_peak(drive(n_pulses), substeps)
    assert build_peak(drive(10 * n_pulses), substeps) <= 1.1 * short
