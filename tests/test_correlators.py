import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pulsespec as ps
from pulsespec.spectrum_numeric import theta_sums
from conftest import MARCH_GRIDS, drive, floors, unfold
from marcher import apply_pi_pulse, march, march_block, march_populations


@pytest.fixture(scope="module")
def fig_grid():
    p = drive(8)
    g = ps.make_time_grid(p)
    return p, g, march_populations(p, g), ps.build_correlator_grids(p, g)


def correlators(nodes, kernel, i, side=0):
    """C1 and C2 of t node i over its theta range, as a 2 x (last-i+1)
    array: its populations, from `march_populations`, times its row of
    the kernel table; side=1 gives the pre-swap limits instead of the
    post-pulse values."""
    n_sub = kernel.shape[1] // 2
    last = len(nodes) - 1
    return nodes[i, :, None] * unfold(kernel, i % n_sub, last - i + 1, side)


def in_grid(g):
    """Where row r at column c, theta = (c + 1)*dt, is within the grid
    from the row's first node, node r (the companion, row n_sub, starts
    at node n_sub)."""
    n_sub = g.substeps_per_interval
    r = np.arange(n_sub + 1)[:, None]
    return np.arange(1, 2 * n_sub + 1) <= g.n_nodes - 1 - r


def test_initial_condition_identity(fig_grid):
    p, g, nodes, kernel = fig_grid
    for i in range(g.n_nodes):
        c1, c2 = correlators(nodes, kernel, i)
        assert c1[0] == nodes[i, 0]
        assert c2[0] == nodes[i, 1]


def test_rows_span_one_pulse_pair(fig_grid):
    p, g, nodes, kernel = fig_grid
    n_sub = g.substeps_per_interval
    period = 2 * n_sub
    assert kernel.shape == (3, period)
    # theta = P*dt ends the first pulse pair: the pulse there swaps the
    # companion away and row 0 back in, and every other value is the pair
    # factor, the propagator over two swaps and 2*tau
    rows, before = (np.array([unfold(kernel, r, period + 1, side)[period]
                              for r in range(n_sub + 1)])
                    for side in (0, 1))
    factor = kernel[2, -1]
    assert rows[n_sub] == 0.0 and before[0] == 0.0
    assert np.all(rows[:n_sub] == factor) and np.all(before[1:] == factor)
    assert factor == pytest.approx(np.exp(-p.gamma * p.tau), abs=1e-15)


def ge_march(m, start, length, p, g):
    """Post-pulse values and left limits of the ge element of a march."""
    stored, crossings = march(m, start, length, p, g)
    post = stored[:, 1, 0].copy()
    before = post.copy()
    before[crossings] = stored[crossings, 0, 1]
    return post, before


def assert_rows_periodic(p, g, kernel):
    """A row marched from any node equals its residue row of the kernel
    table, companions too, post-pulse values and left limits alike, over
    the first pulse pair and, as factor times the table, past it: within
    2 eps*(1 + |delta|*theta), measured 0.95 at most on these grids. The
    values are finite, since a non-finite value would poison the sums
    even where its weight is zero."""
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    seed = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    scale = np.finfo(float).eps * (1 + abs(p.delta) * np.arange(last + 1)
                                   * g.dt)
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
                expected = unfold(kernel, row, last - i + 1, side)
                assert np.all(np.abs(got - expected)
                              <= 2 * scale[:last - i + 1])
    assert np.all(np.isfinite(kernel))


def test_rows_are_periodic_in_the_start_node(fig_grid):
    p, g, nodes, kernel = fig_grid
    assert_rows_periodic(p, g, kernel)


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
    # every train of two or more pulses reads the same kernel table, so
    # one build can serve a sweep over train lengths at fixed delta, tau
    # and substeps; a single pulse never swaps twice
    kernels = [ps.build_correlator_grids(p, ps.make_time_grid(p, substeps))
               for p in map(drive, (2, 3, 4, 8, 81, 700))]
    for kernel in kernels[1:]:
        assert np.array_equal(kernel, kernels[0])


def assert_matches_march(p, g):
    """The kernel table against the reference march of whole matrices.
    Row 0 before the first pulse, and row 2 on trains of two or more
    pulses, where the companion is in the grid, are the march's own
    products, bit for bit. Every post-pulse value and left limit the grid
    reaches, of the residue rows and, with pulses, of the companion, is
    within 2 eps*(1 + |delta|*theta) of the table entry its floor reads,
    measured 1.23 at most over 400 random grids of the ranges below: the
    table forms a rotation over theta in one exponential, where the march
    multiplies two or three."""
    n_sub = g.substeps_per_interval
    kernel = ps.build_correlator_grids(p, g)
    reference = march_block(p, g)
    head = np.append(reference[0, 0, :n_sub - 1], reference[1, 0, n_sub - 1])
    assert kernel[0, :n_sub].tobytes() == head.tobytes()
    reached = in_grid(g)
    if p.n_pulses >= 2:
        companion = np.append(reference[0, n_sub, n_sub - 1:-1],
                              reference[1, n_sub, -1])
        mask = reached[n_sub, n_sub - 1:]
        assert (kernel[2, n_sub - 1:][mask].tobytes()
                == companion[mask].tobytes())
    table = np.append(kernel, np.zeros((1, 2 * n_sub)), axis=0)
    columns = np.arange(2 * n_sub)
    bound = 2 * np.finfo(float).eps * (1 + abs(p.delta) * (columns + 1)
                                       * g.dt)
    for row in range(n_sub + (p.n_pulses >= 1)):
        for side in (0, 1):
            expected = table[floors(n_sub, row, side), columns]
            dev = np.abs(reference[side, row] - expected)
            assert np.all((dev <= bound)[reached[row]]), (row, side)


@pytest.mark.parametrize("name", sorted(MARCH_GRIDS))
def test_block_matches_reference_march(name):
    p, substeps = MARCH_GRIDS[name]
    assert_matches_march(p, ps.make_time_grid(p, substeps))


def reached(p, g):
    """Where an in-grid t node reads each kernel entry: the residue rows
    and, with an interior pulse node, the companion at floor 2, whose
    floor-1 reads are of kernel[1], 0 on every train with a companion."""
    n_sub = g.substeps_per_interval
    out = np.zeros((4, 2 * n_sub), dtype=bool)
    companion = p.n_pulses >= 2
    for row in range(n_sub + companion):
        for side in (0, 1):
            f = floors(n_sub, row, side)
            read = in_grid(g)[row] & ((row < n_sub) | (f == 2))
            out[f[read], np.arange(2 * n_sub)[read]] = True
    return out[:3]


PAST_GRIDS = MARCH_GRIDS | {
    "pulse_free_one_interval": (drive(0, free_time=0.2), 20)}


@pytest.mark.parametrize("name", sorted(PAST_GRIDS))
def test_pair_is_zero_past_the_grid(name):
    # no t node's range reaches past the grid, so the quadrature reads
    # every value of the pair there as zero: the theta sums do not change
    # when the table entries that no in-grid node reads do, which on a
    # one-interval pulse-free grid is every column past tau
    p, substeps = PAST_GRIDS[name]
    g = ps.make_time_grid(p, substeps)
    traj = ps.propagate_trajectory(p, g)
    kernel = ps.build_correlator_grids(p, g)
    changed = kernel.copy()
    changed[~reached(p, g)] = 1e6 + 1e6j
    assert np.array_equal(theta_sums(p, g, traj, changed),
                          theta_sums(p, g, traj, kernel))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(delta=st.floats(-10.0, 10.0), tau=st.floats(0.05, 2.0),
       n_pulses=st.integers(0, 50), substeps=st.integers(1, 30),
       free_time=st.floats(0.05, 5.0))
def test_derived_limits_match_reference_march(delta, tau, n_pulses,
                                              substeps, free_time):
    p = ps.DriveParams(delta=delta, tau=tau, n_pulses=n_pulses,
                       free_time=None if n_pulses else free_time)
    assert_matches_march(p, ps.make_time_grid(p, substeps))


def test_same_interval_rotation(fig_grid):
    # inside one inter-pulse interval the c2 value is just the seeded
    # population times the free coherence factor
    p, g, nodes, kernel = fig_grid
    i = 7          # t = 0.07, interval 0
    c2 = correlators(nodes, kernel, i)[1]
    for j in range(12):
        theta = j * g.dt
        expected = nodes[i, 1] * cmath.exp((1j * p.delta - p.gamma / 2)
                                           * theta)
        assert abs(c2[j] - expected) <= 1e-12


def test_odd_separation_vanishes(fig_grid):
    p, g, nodes, kernel = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    c1, c2 = correlators(nodes, kernel, i)
    # t + theta in interval 1: exactly one pulse crossed
    for j in range(n_sub - i + 1, 2 * n_sub - i):
        assert c2[j] == 0.0
        assert c1[j] == 0.0


def test_factorization_against_analytic_kernel(fig_grid):
    p, g, nodes, kernel = fig_grid
    worst = 0.0
    for i in range(0, g.n_nodes - 1, 7):
        c1, c2 = correlators(nodes, kernel, i)
        for j in range(0, c1.size, 5):
            f = ps.f_analytic(g.times[i], j * g.dt, p)
            worst = max(worst,
                        abs(c1[j] - f * nodes[i, 0]),
                        abs(c2[j] - f * nodes[i, 1]))
    assert worst <= 1e-9


def test_magnitude_decay(fig_grid):
    p, g, nodes, kernel = fig_grid
    for i in (0, 13, 55):
        row = correlators(nodes, kernel, i)[1]
        ref = abs(row[0])
        for j in range(row.size):
            value = abs(row[j])
            if value == 0.0:
                continue
            assert value == pytest.approx(ref * np.exp(-p.gamma * j * g.dt / 2),
                                          abs=1e-9)


def test_bounded_by_one(fig_grid):
    p, g, nodes, kernel = fig_grid
    for i in range(g.n_nodes):
        assert np.max(np.abs(correlators(nodes, kernel, i))) <= 1.0 + 1e-12
        assert np.max(np.abs(correlators(nodes, kernel, i, 1))) <= 1.0 + 1e-12


def test_before_values_hold_left_limit(fig_grid):
    p, g, nodes, kernel = fig_grid
    n_sub = g.substeps_per_interval
    i = 7
    j = n_sub - i      # theta lands exactly on the first pulse after t
    expected = nodes[i, 1] * cmath.exp((1j * p.delta - p.gamma / 2) * j * g.dt)
    assert abs(correlators(nodes, kernel, i, 1)[1][j] - expected) <= 1e-12
    # stored value at the crossing is post-pulse: the swapped-in component
    assert correlators(nodes, kernel, i)[1][j] == 0.0


def test_pre_rows_cover_interior_pulse_nodes(fig_grid):
    p, g, nodes, kernel = fig_grid
    n_sub = g.substeps_per_interval
    last = g.n_nodes - 1
    for i in range(n_sub, last, n_sub):
        # the companion row starts from the pre-pulse state: populations
        # of the stored (post-pulse) node swapped back
        pre = nodes[i, ::-1]
        c2 = pre[1] * unfold(kernel, n_sub, last - i + 1)
        assert c2[0] == nodes[i, 0]
        # the swap right after theta = 0 empties the first interval
        assert np.all(c2[1:n_sub] == 0.0)
        assert np.all(unfold(kernel, n_sub, n_sub, 1)[1:] == 0.0)


def test_no_pulse_rows_follow_free_kernel():
    p = drive(0, free_time=1.0)
    g = ps.make_time_grid(p)
    nodes = march_populations(p, g)
    i = 30
    row = correlators(nodes, ps.build_correlator_grids(p, g), i)[0]
    for j in (0, 11, row.size - 1):
        expected = nodes[i, 0] * cmath.exp((1j * p.delta - p.gamma / 2)
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


def test_build_keeps_no_second_table():
    # the rotation is formed in the kernel's own first row: measured 22.47
    # MB traced for the 19.2 MB table of one pulse at 200,000 substeps, the
    # elapsed times (3.2 MB) the one temporary; with a separate rotation
    # table beside it, 25.6 MB
    p = drive(1)
    table = 3 * 2 * 200_000 * 16
    assert build_peak(p, 200_000) <= 1.18 * table
