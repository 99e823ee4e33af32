import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsespec as ps
from conftest import MARCH_GRIDS, drive, unfold
from marcher import apply_pi_pulse, march, march_block


@pytest.fixture(scope="module")
def fig_grid():
    p = drive(8)
    g = ps.make_time_grid(p)
    return p, g, ps.propagate_trajectory(p, g), ps.build_correlator_grids(p, g)


def correlators(traj, pair, i, side=0):
    """C1 and C2 of t node i over its theta range, as a 2 x (last-i+1)
    array: its populations times its row of the pair; side=1 gives the
    pre-swap limits instead of the post-pulse values."""
    n_sub = pair.shape[1] - 1
    last = len(traj) - 1
    return traj[i, :, None] * unfold(pair, i % n_sub, last - i + 1, side)


def in_grid(g):
    """Where row r at column c, theta = (c + 1)*dt, is within the grid
    from the row's first node, node r (the companion's is node n_sub)."""
    n_sub = g.substeps_per_interval
    r = np.arange(n_sub + 1)[:, None]
    return np.arange(1, 2 * n_sub + 1) <= g.n_nodes - 1 - r


def test_initial_condition_identity(fig_grid):
    p, g, traj, pair = fig_grid
    for i in range(g.n_nodes):
        c1, c2 = correlators(traj, pair, i)
        assert c1[0] == traj[i, 0]
        assert c2[0] == traj[i, 1]


def test_rows_span_one_pulse_pair(fig_grid):
    p, g, traj, pair = fig_grid
    n_sub = g.substeps_per_interval
    assert pair.shape == (2, n_sub + 1, 2 * n_sub)
    # the last column is theta = P*dt: the pulse there swaps the companion
    # away and row 0 back in, and every other value is the pair factor,
    # row 0's post-pulse value
    rows, before = pair
    factor = pair[0, 0, -1]
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


def assert_rows_periodic(p, g, pair):
    """A row marched from any node equals its residue row, companions too.
    The post-pulse values match bit for bit over the first pulse pair,
    theta <= P*dt; the left limits, one derived rotation step after them,
    match there within 2 ulp of 1 (measured 1.5). Over the rest of the
    theta range both match factor times the pair before within 4 ulp of 1.
    The values are finite, since a non-finite value would poison the sums
    even where its weight is zero."""
    n_sub = g.substeps_per_interval
    period = 2 * n_sub
    last = g.n_nodes - 1
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    tol = 4 * np.finfo(float).eps
    for i in range(g.n_nodes):
        starts = [(seed, i % n_sub)]
        # the companion starts at interior pulse nodes, which a pulse-free
        # grid has none of
        if i % n_sub == 0 and 0 < i < last and p.n_pulses >= 1:
            starts.append((apply_pi_pulse(seed), n_sub))
        for m, row in starts:
            for side, got in enumerate(ge_march(m, i, last - i, p, g)):
                if row == n_sub:
                    # the companion records its theta = 0 value before the swap
                    got[0] = 1.0
                expected = unfold(pair, row, last - i + 1, side)
                if side == 0:
                    assert np.array_equal(got[:period + 1],
                                          expected[:period + 1])
                else:
                    assert np.max(np.abs(got[:period + 1]
                                         - expected[:period + 1])) <= tol / 2
                assert np.max(np.abs(got - expected)) <= tol
    assert np.all(np.isfinite(pair))


def test_rows_are_periodic_in_the_start_node(fig_grid):
    p, g, traj, pair = fig_grid
    assert_rows_periodic(p, g, pair)


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
    pairs = [ps.build_correlator_grids(p, ps.make_time_grid(p, substeps))
             for p in map(drive, (3, 4, 8, 81, 700))]
    for pair in pairs[1:]:
        assert np.array_equal(pair, pairs[0])


@pytest.mark.parametrize("name", sorted(MARCH_GRIDS))
def test_block_matches_reference_march(name):
    # within the grid, the post-pulse residue rows are marched, and they
    # equal the reference block's; the rest of the pair is derived, tested
    # below
    p, substeps = MARCH_GRIDS[name]
    g = ps.make_time_grid(p, substeps)
    n_sub = g.substeps_per_interval
    post = ps.build_correlator_grids(p, g)[0, :n_sub]
    reference = march_block(p, g)[0, :n_sub]
    mask = in_grid(g)[:n_sub]
    assert np.array_equal(post[mask], reference[mask])
    # the zeros too are signed as the march signs them
    assert post[mask].tobytes() == reference[mask].tobytes()


PAST_GRIDS = MARCH_GRIDS | {
    "pulse_free_one_interval": (drive(0, free_time=0.2), 20)}


@pytest.mark.parametrize("name", sorted(PAST_GRIDS))
def test_pair_is_zero_past_the_grid(name):
    # no t node's range reaches past the grid, so the quadrature gives
    # those entries zero weight; the build zeroes them, where a one-interval
    # pulse-free grid used to keep its march running past the last node
    p, substeps = PAST_GRIDS[name]
    g = ps.make_time_grid(p, substeps)
    past = ps.build_correlator_grids(p, g)[:, ~in_grid(g)]
    assert past.tobytes() == bytes(past.nbytes)


def reached(p, g):
    """Where a t node's range reaches each derived value: row r < n_sub at
    column c (theta = (c + 1)*dt) from node r, and the companion from the
    first interior pulse node, n_sub, which a train of two pulses has."""
    r = np.arange(g.substeps_per_interval + 1)[:, None]
    return in_grid(g) & ((r < r[-1]) | (p.n_pulses >= 2))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(delta=st.floats(-10.0, 10.0), tau=st.floats(0.05, 2.0),
       n_pulses=st.integers(0, 50), substeps=st.integers(1, 30),
       free_time=st.floats(0.05, 5.0))
def test_derived_limits_match_reference_march(delta, tau, n_pulses,
                                              substeps, free_time):
    # the companion is the march's own product, bit for bit. A left limit
    # is one rotation step after a stored value, so it rounds once more,
    # and its phase, delta*theta, rounds as a sum of two steps instead of
    # one product: measured within 1.5 eps*(1 + |delta|*theta)
    p = ps.DriveParams(delta=delta, tau=tau, n_pulses=n_pulses,
                       free_time=None if n_pulses else free_time)
    g = ps.make_time_grid(p, substeps)
    post, before = ps.build_correlator_grids(p, g)
    reference = march_block(p, g)
    marched = in_grid(g)[:substeps]
    assert (post[:substeps][marched].tobytes()
            == reference[0, :substeps][marched].tobytes())
    assert not np.any(post[~in_grid(g)]) and not np.any(before[~in_grid(g)])
    mask = reached(p, g)
    assert np.array_equal(post[mask], reference[0][mask])
    theta = np.arange(1, 2 * substeps + 1) * g.dt
    bound = 2 * np.finfo(float).eps * (1 + abs(delta) * theta)
    assert np.all((np.abs(before - reference[1]) <= bound)[mask])


def test_same_interval_rotation(fig_grid):
    # inside one inter-pulse interval the c2 value is just the seeded
    # population times the free coherence factor
    p, g, traj, pair = fig_grid
    i = 7          # t = 0.07, interval 0
    c2 = correlators(traj, pair, i)[1]
    for j in range(12):
        theta = j * g.dt
        expected = traj[i, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * theta)
        assert abs(c2[j] - expected) <= 1e-12


def test_odd_separation_vanishes(fig_grid):
    p, g, traj, pair = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    c1, c2 = correlators(traj, pair, i)
    # t + theta in interval 1: exactly one pulse crossed
    for j in range(n_sub - i + 1, 2 * n_sub - i):
        assert c2[j] == 0.0
        assert c1[j] == 0.0


def test_factorization_against_analytic_kernel(fig_grid):
    p, g, traj, pair = fig_grid
    worst = 0.0
    for i in range(0, g.n_nodes - 1, 7):
        c1, c2 = correlators(traj, pair, i)
        for j in range(0, c1.size, 5):
            f = ps.f_analytic(g.times[i], j * g.dt, p)
            worst = max(worst,
                        abs(c1[j] - f * traj[i, 0]),
                        abs(c2[j] - f * traj[i, 1]))
    assert worst <= 1e-9


def test_magnitude_decay(fig_grid):
    p, g, traj, pair = fig_grid
    for i in (0, 13, 55):
        row = correlators(traj, pair, i)[1]
        ref = abs(row[0])
        for j in range(row.size):
            value = abs(row[j])
            if value == 0.0:
                continue
            assert value == pytest.approx(ref * np.exp(-p.gamma * j * g.dt / 2),
                                          abs=1e-9)


def test_bounded_by_one(fig_grid):
    p, g, traj, pair = fig_grid
    for i in range(g.n_nodes):
        assert np.max(np.abs(correlators(traj, pair, i))) <= 1.0 + 1e-12
        assert np.max(np.abs(correlators(traj, pair, i, 1))) <= 1.0 + 1e-12


def test_before_values_hold_left_limit(fig_grid):
    p, g, traj, pair = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    j = n_sub - i      # theta lands exactly on the first pulse after t
    expected = traj[i, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * j * g.dt)
    assert abs(correlators(traj, pair, i, 1)[1][j] - expected) <= 1e-12
    # stored value at the crossing is post-pulse: the swapped-in component
    assert correlators(traj, pair, i)[1][j] == 0.0


def test_pre_rows_cover_interior_pulse_nodes(fig_grid):
    p, g, traj, pair = fig_grid
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    for i in range(n_sub, last, n_sub):
        # the companion row starts from the pre-pulse state: populations
        # of the stored (post-pulse) node swapped back
        pre = traj[i, ::-1]
        c2 = pre[1] * unfold(pair, n_sub, last - i + 1)
        assert c2[0] == traj[i, 0]
        # the swap right after theta = 0 empties the first interval
        assert np.all(c2[1:n_sub] == 0.0)
        assert np.all(unfold(pair, n_sub, n_sub, 1)[1:] == 0.0)


def test_no_pulse_rows_follow_free_kernel():
    p = drive(0, free_time=1.0)
    g = ps.make_time_grid(p)
    traj = ps.propagate_trajectory(p, g)
    i = 30
    row = correlators(traj, ps.build_correlator_grids(p, g), i)[0]
    for j in (0, 11, row.size - 1):
        expected = traj[i, 0] * cmath.exp((1j * p.delta - p.gamma / 2)
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
