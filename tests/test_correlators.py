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
    traj = ps.propagate_trajectory(p, g)
    return p, g, traj, ps.build_correlator_grids(p, g, traj)


def correlators(cg, i, values=None):
    """C1 and C2 of t node i over its theta range, as a 2 x (last-i+1)
    array; values=cg.before gives the pre-swap limits instead."""
    n_sub = cg.rows.shape[0] - 1
    last = cg.pops.shape[1] - 1
    return cg.pops[:, i, None] * unfold(cg, i % n_sub, last - i + 1, values)


def test_initial_condition_identity(fig_grid):
    p, g, traj, cg = fig_grid
    for i in range(g.n_nodes):
        c1, c2 = correlators(cg, i)
        assert c1[0] == traj[i, 0, 0]
        assert c2[0] == traj[i, 1, 1]


def test_rows_span_one_pulse_pair(fig_grid):
    p, g, traj, cg = fig_grid
    n_sub = g.substeps_per_interval
    assert cg.rows.shape == cg.before.shape == (n_sub + 1, 2 * n_sub)
    assert cg.pops.shape == (2, g.n_nodes)
    # the last column is theta = P*dt: the pulse there swaps the companion
    # away and row 0 back in, and every other value is the pair factor,
    # row 0's post-pulse value
    factor = cg.rows[0, -1]
    assert cg.rows[n_sub, -1] == 0.0 and cg.before[0, -1] == 0.0
    assert np.max(np.abs(cg.rows[:n_sub, -1] - factor)) <= 1e-15
    assert np.max(np.abs(cg.before[1:, -1] - factor)) <= 1e-15
    assert factor == pytest.approx(np.exp(-p.gamma * p.tau), abs=1e-15)


def ge_march(m, start, length, p, g):
    """Post-pulse values and left limits of the ge element of a march."""
    stored, crossings = march(m, start, length, p, g)
    post = stored[:, 1, 0].copy()
    before = post.copy()
    before[crossings] = stored[crossings, 0, 1]
    return post, before


def assert_rows_periodic(p, g, cg):
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
            for got, values in zip(ge_march(m, i, last - i, p, g),
                                   (cg.rows, cg.before)):
                if row == n_sub:
                    # the companion records its theta = 0 value before the swap
                    got[0] = 1.0
                expected = unfold(cg, row, last - i + 1, values)
                assert np.array_equal(got[:pair + 1], expected[:pair + 1])
                assert np.max(np.abs(got - expected)) <= tol
    assert np.all(np.isfinite(cg.rows)) and np.all(np.isfinite(cg.before))


def test_rows_are_periodic_in_the_start_node(fig_grid):
    p, g, traj, cg = fig_grid
    assert_rows_periodic(p, g, cg)


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
    cg = ps.build_correlator_grids(p, g, ps.propagate_trajectory(p, g))
    assert_rows_periodic(p, g, cg)


def test_same_interval_rotation(fig_grid):
    # inside one inter-pulse interval the c2 value is just the seeded
    # population times the free coherence factor
    p, g, traj, cg = fig_grid
    i = 7          # t = 0.07, interval 0
    c2 = correlators(cg, i)[1]
    for j in range(12):
        theta = j * g.dt
        expected = traj[i, 1, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * theta)
        assert abs(c2[j] - expected) <= 1e-12


def test_odd_separation_vanishes(fig_grid):
    p, g, traj, cg = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    c1, c2 = correlators(cg, i)
    # t + theta in interval 1: exactly one pulse crossed
    for j in range(n_sub - i + 1, 2 * n_sub - i):
        assert c2[j] == 0.0
        assert c1[j] == 0.0


def test_factorization_against_analytic_kernel(fig_grid):
    p, g, traj, cg = fig_grid
    worst = 0.0
    for i in range(0, g.n_nodes - 1, 7):
        c1, c2 = correlators(cg, i)
        for j in range(0, c1.size, 5):
            f = ps.f_analytic(g.times[i], j * g.dt, p)
            worst = max(worst,
                        abs(c1[j] - f * traj[i, 0, 0]),
                        abs(c2[j] - f * traj[i, 1, 1]))
    assert worst <= 1e-9


def test_magnitude_decay(fig_grid):
    p, g, traj, cg = fig_grid
    for i in (0, 13, 55):
        row = correlators(cg, i)[1]
        ref = abs(row[0])
        for j in range(row.size):
            value = abs(row[j])
            if value == 0.0:
                continue
            assert value == pytest.approx(ref * np.exp(-p.gamma * j * g.dt / 2),
                                          abs=1e-9)


def test_bounded_by_one(fig_grid):
    p, g, traj, cg = fig_grid
    for i in range(g.n_nodes):
        assert np.max(np.abs(correlators(cg, i))) <= 1.0 + 1e-12
        assert np.max(np.abs(correlators(cg, i, cg.before))) <= 1.0 + 1e-12


def test_before_values_hold_left_limit(fig_grid):
    p, g, traj, cg = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    j = n_sub - i      # theta lands exactly on the first pulse after t
    expected = traj[i, 1, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * j * g.dt)
    assert abs(correlators(cg, i, cg.before)[1][j] - expected) <= 1e-12
    # stored value at the crossing is post-pulse: the swapped-in component
    assert correlators(cg, i)[1][j] == 0.0


def test_pre_rows_cover_interior_pulse_nodes(fig_grid):
    p, g, traj, cg = fig_grid
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    for i in range(n_sub, last, n_sub):
        # the companion row starts from the pre-pulse state: populations
        # of the stored (post-pulse) node swapped back
        pre = ps.apply_pi_pulse(traj[i])
        c2 = pre[1, 1] * unfold(cg, n_sub, last - i + 1)
        assert c2[0] == traj[i, 0, 0]
        # the swap right after theta = 0 empties the first interval
        assert np.all(c2[1:n_sub] == 0.0)
        assert np.all(unfold(cg, n_sub, n_sub, cg.before)[1:] == 0.0)


def test_grid_mismatch_detected(fig_grid):
    p, g, traj, _ = fig_grid
    with pytest.raises(ps.GridMismatch):
        ps.build_correlator_grids(p, g, traj[:-1])


def test_no_pulse_rows_follow_free_kernel():
    p = drive(0, free_time=1.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    cg = ps.build_correlator_grids(p, g, traj)
    i = 30
    row = correlators(cg, i)[0]
    for j in (0, 11, row.size - 1):
        expected = traj[i, 0, 0] * cmath.exp((1j * p.delta - p.gamma / 2)
                                          * j * g.dt)
        assert abs(row[j] - expected) <= 1e-12


def build_peak(p, substeps):
    g = ps.make_time_grid(p, substeps)
    traj = ps.propagate_trajectory(p, g)
    tracemalloc.start()
    try:
        ps.build_correlator_grids(p, g, traj)
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
