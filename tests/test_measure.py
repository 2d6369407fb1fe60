import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathmkv.control import FiniteActionSet
from pathmkv.errors import CapacityError, ConfigurationError, DomainError
from pathmkv.hjb import HamiltonianIntegrand, hamiltonian_sup_randomized
from pathmkv.measure import (
    COST_TILE_ELEMENTS,
    EXACT_ATOM_CAP,
    EmpiricalControlMeasure,
    _sup_cost_matrix,
    _quantile_ot_sq,
    EmpiricalPathMeasure,
    StoppedView,
    exact_ot_cost,
    measure_from_paths,
    stopped_measure,
    wasserstein2,
    wasserstein2_controls,
)
from pathmkv.paths import PathGrid, TimeGrid, constant_path, stop, sup_norm

# Reproducible property runs: a fixed example sequence, no example database.
PROPERTY = settings(max_examples=20, derandomize=True, database=None, deadline=None)
SEEDS = st.integers(0, 2**32 - 1)


def random_measure(grid, d, n, rng, weighted=False):
    atoms = rng.normal(size=(n, grid.steps + 1, d))
    if weighted:
        w = rng.uniform(0.5, 1.5, n)
        w /= w.sum()
    else:
        w = None
    return EmpiricalPathMeasure(grid, atoms, w)


def brute_force_w2_equal_weights(mu, nu):
    """Exhaustive minimum over all permutation couplings (equal weights)."""
    n = mu.n_atoms
    best = np.inf
    cost = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            diff = PathGrid(mu.grid, mu.atoms[i] - nu.atoms[j])
            cost[i, j] = sup_norm(diff) ** 2
    for perm in itertools.permutations(range(n)):
        val = sum(cost[i, perm[i]] for i in range(n)) / n
        best = min(best, val)
    return np.sqrt(best)


def test_weights_must_sum_to_one():
    g = TimeGrid(1.0, 4)
    atoms = np.zeros((2, 5, 1))
    with pytest.raises(ConfigurationError):
        EmpiricalPathMeasure(g, atoms, np.array([0.5, 0.6]))


@pytest.mark.parametrize(
    "weights", [[np.nan, np.nan], [np.nan, 1.0], [0.5, np.nan]], ids=["both", "first", "second"]
)
def test_nan_weights_are_refused(weights):
    # both nan < 0 and abs(nan - 1) > 1e-12 are False: the test must be
    # stated positively for NaN to fail it
    with pytest.raises(ConfigurationError, match="weights must be nonnegative"):
        EmpiricalPathMeasure(TimeGrid(1.0, 2), np.zeros((2, 3, 1)), weights)
    with pytest.raises(ConfigurationError, match="control weights must be nonnegative"):
        EmpiricalControlMeasure(np.zeros((2, 1)), weights)
    with pytest.raises(ConfigurationError, match="grid weights must be nonnegative"):
        hamiltonian_sup_randomized(*_two_level_problem(), grid_weights=weights)


def _two_level_problem():
    mu = measure_from_paths([constant_path(TimeGrid(1.0, 2), [0.0])])
    F = HamiltonianIntegrand(lambda xs, u, nu: -u[:, 0] ** 2, nu_dependent=True)
    return F, mu, FiniteActionSet([[0.0], [1.0]])


def test_randomization_grid_weights_of_the_wrong_shape_are_refused():
    # a (1, 2) block sums to 1 and used to pass
    with pytest.raises(ConfigurationError, match=r"grid weights .* got shape \(1, 2\)"):
        hamiltonian_sup_randomized(*_two_level_problem(), grid_weights=[[0.5, 0.5]])


def test_control_atoms_must_be_one_row_per_atom():
    with pytest.raises(ConfigurationError, match=r"\(N, m\) atoms.*\(2, 2, 2\)"):
        EmpiricalControlMeasure(np.zeros((2, 2, 2)))


def test_control_w2_refuses_laws_of_different_widths():
    with pytest.raises(ConfigurationError, match="different action dimensions"):
        wasserstein2_controls(EmpiricalControlMeasure(np.zeros((2, 1))), EmpiricalControlMeasure(np.zeros((2, 2))))


@pytest.mark.parametrize("n", list(range(1, 18)) + [4000])
def test_unweighted_mean_at_is_the_float_of_ndarray_mean(n):
    # N = 1..17 crosses numpy's unrolled 8-wide blocks; 4000 its pairwise split
    g = TimeGrid(1.0, 4)
    values = np.random.default_rng(n).normal(size=(n, 5, 3))
    for node in range(5):
        view = StoppedView(g, values, node)
        for t in (0.0, 0.5, 1.0):
            want = values[:, min(g.node(t), node), :].mean(axis=0)
            assert view.mean_at(t).tobytes() == want.tobytes()
    # the node-major storage the step kernel reads
    major = np.ascontiguousarray(values.transpose(1, 0, 2)).transpose(1, 0, 2)
    assert StoppedView(g, major, 3).mean_at(1.0).tobytes() == values[:, 3].mean(axis=0).tobytes()


def test_stopped_measure_constant_invariant():
    g = TimeGrid(1.0, 6)
    mu = measure_from_paths([constant_path(g, [1.0]), constant_path(g, [-2.0])])
    for t in [0.0, 0.5, 1.0]:
        assert np.array_equal(stopped_measure(mu, t).atoms, mu.atoms)


def test_stopped_measure_at_zero_freezes_initial():
    g = TimeGrid(1.0, 5)
    rng = np.random.default_rng(0)
    mu = random_measure(g, 2, 3, rng)
    s = stopped_measure(mu, 0.0)
    assert np.all(s.atoms == mu.atoms[:, :1, :])


def test_stopped_measure_idempotent_and_pushforward_of_dirac():
    g = TimeGrid(1.0, 10)
    lin = PathGrid(g, np.linspace(0, 1, 11)[:, None])
    mu = measure_from_paths([lin])
    s = stopped_measure(mu, 0.5)
    assert np.array_equal(s.atoms[0], stop(lin, 0.5).values)
    assert np.array_equal(stopped_measure(s, 0.5).atoms, s.atoms)
    assert np.array_equal(stopped_measure(mu, 1.0).atoms, mu.atoms)


def test_stopped_measure_and_of_read_a_plain_view_at_its_own_node():
    g = TimeGrid(1.0, 10)
    values = np.random.default_rng(7).normal(size=(5, 11, 2))
    j = 4
    view = StoppedView(g, values, j)
    want = stopped_measure(EmpiricalPathMeasure(g, values, None), g.time_at(j))
    later = StoppedView.of(view, 0.8)
    assert later.node == j
    for got in (stopped_measure(view, 0.8), stopped_measure(later, 1.0)):
        assert np.array_equal(got.atoms, want.atoms)
        assert np.array_equal(got.weights, want.weights)


def test_measure_atoms_and_weights_are_read_only():
    mu = random_measure(TimeGrid(1.0, 4), 1, 3, np.random.default_rng(8), weighted=True)
    with pytest.raises(ValueError):
        mu.atoms[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        mu.weights[0] = 1.0


def test_measure_leaves_the_callers_arrays_writable():
    v = np.zeros((2, 3, 1))
    w = np.array([0.25, 0.75])
    m = EmpiricalPathMeasure(TimeGrid(1.0, 2), v, w)
    assert v.flags.writeable and w.flags.writeable
    assert np.shares_memory(m.atoms, v)  # a view: the atoms are not copied
    with pytest.raises(ValueError):
        m.atoms[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        m.weights[0] = 1.0
    m2 = EmpiricalPathMeasure(TimeGrid(1.0, 2), v, None)
    assert v.flags.writeable
    with pytest.raises(ValueError):
        m2.atoms[0, 0, 0] = 1.0


def test_mean_at():
    g = TimeGrid(1.0, 4)
    c = constant_path(g, [1.0])
    mu = measure_from_paths([c, constant_path(g, [-1.0])])
    assert mu.mean_at(0.7)[0] == 0.0
    assert measure_from_paths([c]).mean_at(0.3)[0] == 1.0
    w = EmpiricalPathMeasure(
        g,
        np.stack([constant_path(g, [0.0]).values, constant_path(g, [3.0]).values]),
        np.array([1 / 3, 2 / 3]),
    )
    assert w.mean_at(0.5)[0] == pytest.approx(2.0)


def test_w2_identity_and_two_diracs():
    g = TimeGrid(1.0, 8)
    rng = np.random.default_rng(1)
    mu = random_measure(g, 2, 5, rng)
    assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-12)
    x = PathGrid(g, rng.normal(size=(9, 2)))
    y = PathGrid(g, rng.normal(size=(9, 2)))
    d = wasserstein2(measure_from_paths([x]), measure_from_paths([y]))
    assert d == pytest.approx(sup_norm(PathGrid(g, x.values - y.values)), rel=1e-12)


def test_w2_two_atom_hand_case():
    # ||a - a'|| = ||b - b'|| = 1, cross distances >= 2: matched coupling wins.
    g = TimeGrid(1.0, 2)
    a = constant_path(g, [0.0])
    b = constant_path(g, [10.0])
    a2 = constant_path(g, [1.0])
    b2 = constant_path(g, [11.0])
    mu = measure_from_paths([a, b])
    nu = measure_from_paths([a2, b2])
    assert wasserstein2(mu, nu) == pytest.approx(1.0, rel=1e-12)


def test_w2_exact_matches_bruteforce_small_clouds():
    rng = np.random.default_rng(2)
    g = TimeGrid(1.0, 5)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 3))
        mu = random_measure(g, d, n, rng)
        nu = random_measure(g, d, n, rng)
        exact = wasserstein2(mu, nu)
        brute = brute_force_w2_equal_weights(mu, nu)
        assert exact == pytest.approx(brute, abs=1e-10)


def test_w2_metric_axioms():
    rng = np.random.default_rng(3)
    g = TimeGrid(1.0, 4)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        mu = random_measure(g, 2, n, rng)
        nu = random_measure(g, 2, n, rng)
        ka = random_measure(g, 2, n, rng)
        dxy = wasserstein2(mu, nu)
        dyx = wasserstein2(nu, mu)
        assert abs(dxy - dyx) <= 1e-12
        assert dxy >= 0.0
        dxz = wasserstein2(mu, ka)
        dzy = wasserstein2(ka, nu)
        assert dxy <= dxz + dzy + 1e-10
    # identity of indiscernibles under atom permutation
    mu = random_measure(g, 2, 5, rng)
    perm = np.random.default_rng(4).permutation(5)
    nu = EmpiricalPathMeasure(g, mu.atoms[perm], None)
    assert wasserstein2(mu, nu) == pytest.approx(0.0, abs=1e-12)


def test_w2_general_weights_lp():
    g = TimeGrid(1.0, 2)
    a = constant_path(g, [0.0])
    b = constant_path(g, [1.0])
    mu = EmpiricalPathMeasure(g, np.stack([a.values, b.values]), np.array([0.75, 0.25]))
    nu = EmpiricalPathMeasure(g, np.stack([a.values, b.values]), np.array([0.25, 0.75]))
    # must move mass 0.5 across distance 1
    assert wasserstein2(mu, nu) == pytest.approx(np.sqrt(0.5), rel=1e-9)


def test_w2_stopping_is_contractive():
    rng = np.random.default_rng(5)
    g = TimeGrid(1.0, 10)
    for _ in range(30):
        mu = random_measure(g, 2, 4, rng)
        nu = random_measure(g, 2, 4, rng)
        full = wasserstein2(mu, nu)
        for t in [0.2, 0.5, 0.8]:
            stopped = wasserstein2(stopped_measure(mu, t), stopped_measure(nu, t))
            assert stopped <= full + 1e-12


def test_w2_capacity_error_points_to_sliced():
    g = TimeGrid(1.0, 2)
    big = EmpiricalPathMeasure(g, np.zeros((600, 3, 1)), None)
    with pytest.raises(CapacityError):
        wasserstein2(big, big, mode="exact")


def test_w2_grid_mismatch():
    mu = EmpiricalPathMeasure(TimeGrid(1.0, 4), np.zeros((2, 5, 1)), None)
    nu = EmpiricalPathMeasure(TimeGrid(1.0, 5), np.zeros((2, 6, 1)), None)
    with pytest.raises(ConfigurationError):
        wasserstein2(mu, nu)


def test_sliced_mean_converges_on_gaussian_clouds():
    # Isotropic Gaussian clouds of time-constant paths: the rank-one sliced
    # estimator with the coordinate-dimension factor reproduces exact W2.
    rng = np.random.default_rng(6)
    g = TimeGrid(1.0, 4)
    d, n = 2, 64
    za = rng.normal(size=(n, d))
    zb = rng.normal(size=(n, d)) * 2.0 + np.array([3.0, 0.0])
    mu = EmpiricalPathMeasure(g, np.repeat(za[:, None, :], g.steps + 1, axis=1), None)
    nu = EmpiricalPathMeasure(g, np.repeat(zb[:, None, :], g.steps + 1, axis=1), None)
    exact = wasserstein2(mu, nu, mode="exact")
    sliced = wasserstein2(mu, nu, mode="sliced", projections=512, seed=1)
    assert abs(sliced - exact) / exact < 0.05


def test_exact_ot_cost_degenerate():
    cost = np.array([[0.0, 4.0], [4.0, 0.0]])
    w = np.array([0.5, 0.5])
    assert exact_ot_cost(cost, w, w) == pytest.approx(0.0)


def one_shot_sup_cost(x, y):
    """The sup cost in one temporary per row block; rows do not share floats."""
    rows = max(1, 2**21 // y.size)
    blocks = (x[i : i + rows, None] - y[None] for i in range(0, len(x), rows))
    return np.concatenate([(diff**2).sum(axis=3).max(axis=2) for diff in blocks])


# (n, m, nodes).  A tile holds at most COST_TILE_ELEMENTS (row, node, column)
# entries: all nodes of as many rows as fit, or, when one row's nodes x m do
# not fit, a span of one row's nodes.
SUP_COST_SHAPES = {
    "unequal_sizes_one_chunk": (7, 5, 13),
    "last_chunk_short": (100, 90, 51),
    "one_node_per_chunk": (EXACT_ATOM_CAP, EXACT_ATOM_CAP, 5),
    "tiny": (2, 3, 4),
    "one_node_paths": (9, 6, 1),
    "node_span_short": (3, EXACT_ATOM_CAP, 300),
    "wider_than_a_tile": (2, COST_TILE_ELEMENTS + 5, 3),
}


@pytest.mark.parametrize("shape", SUP_COST_SHAPES.values(), ids=SUP_COST_SHAPES.keys())
def test_chunked_sup_cost_is_the_one_shot_float(shape):
    n, m, nodes = shape
    row = nodes * m
    if shape == SUP_COST_SHAPES["unequal_sizes_one_chunk"]:
        assert n * row <= COST_TILE_ELEMENTS
    if shape in (SUP_COST_SHAPES["last_chunk_short"], SUP_COST_SHAPES["one_node_per_chunk"]):
        # the row tile does not divide n
        assert row <= COST_TILE_ELEMENTS < n * row and n % (COST_TILE_ELEMENTS // row)
    if shape == SUP_COST_SHAPES["node_span_short"]:
        # one row's nodes x m exceed a tile, and the node span does not divide the grid
        assert row > COST_TILE_ELEMENTS and nodes % (COST_TILE_ELEMENTS // m)
    if shape == SUP_COST_SHAPES["wider_than_a_tile"]:
        assert m > COST_TILE_ELEMENTS  # one row at one node per tile
    rng = np.random.default_rng(n * m * nodes)
    for d in range(1, 8):
        x, y = rng.normal(size=(n, nodes, d)), rng.normal(size=(m, nodes, d))
        cost = _sup_cost_matrix(x, y)
        assert np.array_equal(cost, one_shot_sup_cost(x, y))
        assert np.array_equal(_sup_cost_matrix(y, x), cost.T)
    # numpy sums a length >= 8 axis pairwise; the coordinates are added in order
    for d in (8, 13):
        x, y = rng.normal(size=(n, nodes, d)), rng.normal(size=(m, nodes, d))
        cost = _sup_cost_matrix(x, y)
        np.testing.assert_allclose(cost, one_shot_sup_cost(x, y), rtol=1e-15, atol=0)


def sup_cost_peak(nodes):
    rng = np.random.default_rng(3)
    x, y = (rng.normal(size=(EXACT_ATOM_CAP, nodes, 2)) for _ in range(2))
    tracemalloc.start()
    try:
        _sup_cost_matrix(x, y)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sup_cost_at_the_atom_cap_peaks_below_12_mb():
    # the result (2 MB), two tiles and y's coordinate planes for one node
    # span (0.5 MB each): 3.5 MB
    assert sup_cost_peak(51) < 12 * 2**20


def test_sup_cost_on_a_1001_node_grid_at_the_atom_cap_peaks_below_12_mb():
    # one row's 1001 nodes x 512 columns exceed a tile, so nodes are split
    # into spans too; a copy of y's planes alone would be 8 MB here
    assert sup_cost_peak(1001) < 12 * 2**20


def test_control_measure_and_w2():
    nu1 = EmpiricalControlMeasure(np.array([[0.0], [1.0]]))
    nu2 = EmpiricalControlMeasure(np.array([[0.0], [1.0]]))
    assert wasserstein2_controls(nu1, nu2) == pytest.approx(0.0, abs=1e-9)
    nu3 = EmpiricalControlMeasure(np.array([[2.0], [3.0]]))
    assert wasserstein2_controls(nu1, nu3) == pytest.approx(2.0, rel=1e-9)
    assert nu1.mean() == pytest.approx([0.5])


@PROPERTY
@example(seed=31, n=7, m=5)
@given(seed=SEEDS, n=st.integers(1, 8), m=st.integers(1, 8))
def test_transport_lp_matches_dense_linprog_reference(seed, n, m):
    rng = np.random.default_rng(seed)
    cost = rng.random((n, m))
    w_row = rng.uniform(0.5, 1.5, n)
    w_row /= w_row.sum()
    w_col = rng.uniform(0.5, 1.5, m)
    w_col /= w_col.sum()
    ref = _dense_transport_lp(cost, w_row, w_col)
    assert exact_ot_cost(cost, w_row, w_col) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def _dense_transport_lp(cost, w_row, w_col):
    """The transport LP with every marginal constraint, built dense."""
    from scipy.optimize import linprog

    n, m = cost.shape
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    ref = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_row, w_col]),
                  bounds=(0, None), method="highs")
    assert ref.success
    return ref.fun


def lp_edge_cases():
    rng = np.random.default_rng(17)
    g = TimeGrid(1.0, 6)
    mu, nu = random_measure(g, 2, 7, rng, weighted=True), random_measure(g, 2, 5, rng, weighted=True)
    cost = _sup_cost_matrix(mu.atoms, nu.atoms)
    zero_row, zero_col = mu.weights.copy(), nu.weights.copy()
    zero_row[[1, 4]] = 0.0
    zero_row /= zero_row.sum()
    zero_col[2] = 0.0
    zero_col /= zero_col.sum()
    twice = np.concatenate([mu.atoms, mu.atoms[:3]])
    w_twice = np.concatenate([mu.weights, mu.weights[:3]])
    return {
        "zero_weight_atoms": (cost, zero_row, zero_col),
        "one_atom_row_side": (cost[:1], np.ones(1), nu.weights),
        "one_atom_column_side": (cost[:, :1], mu.weights, np.ones(1)),
        "constant_cost": (np.full((7, 5), 2.5), mu.weights, nu.weights),
        "duplicated_atoms": (_sup_cost_matrix(twice, nu.atoms), w_twice / w_twice.sum(), nu.weights),
    }


@pytest.mark.parametrize("case", lp_edge_cases().keys())
def test_transport_lp_matches_dense_linprog_on_degenerate_inputs(case):
    cost, w_row, w_col = lp_edge_cases()[case]
    ref = _dense_transport_lp(cost, w_row, w_col)
    assert exact_ot_cost(cost, w_row, w_col) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_near_uniform_weights_take_the_transport_lp():
    # weights 1/4 (1 +- 1e-6) are not uniform: the assignment value, which
    # assumes mass 1/4 on every atom, is off by about 1e-7 relative
    rng = np.random.default_rng(5)
    cost = rng.random((4, 4))
    w_row = 0.25 * (1.0 + 1e-6 * np.array([1.0, -1.0, 1.0, -1.0]))
    w_col = np.full(4, 0.25)
    ref = _dense_transport_lp(cost, w_row, w_col)
    assert exact_ot_cost(cost, w_row, w_col) == pytest.approx(ref, rel=1e-12, abs=1e-15)
    assert exact_ot_cost(cost, w_col, w_col) == pytest.approx(
        _dense_transport_lp(cost, w_col, w_col), rel=1e-12
    )


@PROPERTY
@given(seed=SEEDS, sizes=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)))
def test_w2_metric_axioms_on_weighted_clouds(seed, sizes):
    # Weighted clouds take the transport LP, not the assignment problem,
    # unless both sides have one atom.
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 4)
    mu, nu, ka = (random_measure(g, 2, n, rng, weighted=True) for n in sizes)
    dxy, dyx = wasserstein2(mu, nu), wasserstein2(nu, mu)
    assert dxy >= 0.0
    assert abs(dxy - dyx) <= 1e-12
    assert dxy <= wasserstein2(mu, ka) + wasserstein2(ka, nu) + 1e-10
    perm = rng.permutation(mu.n_atoms)
    mu_perm = EmpiricalPathMeasure(g, mu.atoms[perm], mu.weights[perm])
    assert wasserstein2(mu, mu_perm) == pytest.approx(0.0, abs=1e-12)


@PROPERTY
@given(seed=SEEDS, n=st.integers(1, 40), m=st.integers(1, 40))
def test_sliced_w2_is_invariant_under_a_joint_permutation_of_atoms_and_weights(seed, n, m):
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 4)
    mu, nu = random_measure(g, 2, n, rng, weighted=True), random_measure(g, 2, m, rng, weighted=True)
    perm = rng.permutation(n)
    mu_perm = EmpiricalPathMeasure(g, mu.atoms[perm], mu.weights[perm])
    base = wasserstein2(mu, nu, mode="sliced", projections=16, seed=seed)
    got = wasserstein2(mu_perm, nu, mode="sliced", projections=16, seed=seed)
    assert abs(got - base) <= 1e-12


def test_weighted_exact_w2_runs_in_bounded_memory():
    # The transport LP's equality matrix has 2nm nonzeros; a dense one would
    # need (n+m-1) x nm doubles, about 100 MB here, and twice that to build.
    import tracemalloc

    g = TimeGrid(1.0, 10)
    rng = np.random.default_rng(192)
    mu = random_measure(g, 2, 192, rng, weighted=True)
    nu = random_measure(g, 2, 176, rng, weighted=True)
    tracemalloc.start()
    try:
        value = wasserstein2(mu, nu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0.0
    assert peak < 64 * 2**20


def loop_quantile_ot_sq(z1, w1, z2, w2):
    """Reference: the walk over both sorted sides, moving min(r1, r2) at a time."""
    o1, o2 = np.argsort(z1, kind="stable"), np.argsort(z2, kind="stable")
    z1, w1 = z1[o1], w1[o1]
    z2, w2 = z2[o2], w2[o2]
    i = j = 0
    r1, r2 = w1[0], w2[0]
    cost = 0.0
    while True:
        m = min(r1, r2)
        cost += m * (z1[i] - z2[j]) ** 2
        r1 -= m
        r2 -= m
        if r1 <= 1e-15:
            i += 1
            if i == len(z1):
                break
            r1 = w1[i]
        if r2 <= 1e-15:
            j += 1
            if j == len(z2):
                break
            r2 = w2[j]
    return cost


def test_quantile_coupling_uniform_n_vs_4n_matches_closed_form():
    # Equal weights 1/n against 1/(4n): sorted atom k // 4 carries sorted atom
    # k, mass 1/(4n) each.  A running sum of the weights drifts enough at
    # n = 1000 to pair wrong tail atoms (~3e-12 relative here).
    rng = np.random.default_rng(0)
    n = 1000
    z1, z2 = rng.random(n), rng.random(4 * n)
    s1, s2 = np.sort(z1), np.sort(z2)
    k = np.arange(4 * n)
    closed = np.sum((s1[k // 4] - s2) ** 2) / (4 * n)
    got = _quantile_ot_sq(z1, np.full(n, 1.0 / n), z2, np.full(4 * n, 1.0 / (4 * n)))
    assert got == pytest.approx(closed, rel=1e-13, abs=0.0)


def test_quantile_coupling_weighted_unequal_sizes_matches_loop():
    rng = np.random.default_rng(1)
    for n, m in [(1, 5), (7, 11), (160, 184), (3000, 4000)]:
        z1, z2 = rng.normal(size=n), rng.normal(size=m) + 0.5
        w1, w2 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
        w1 /= w1.sum()
        w2 /= w2.sum()
        ref = loop_quantile_ot_sq(z1, w1, z2, w2)
        assert _quantile_ot_sq(z1, w1, z2, w2) == pytest.approx(ref, rel=1e-11, abs=0.0)


def test_quantile_coupling_is_symmetric_bit_for_bit():
    rng = np.random.default_rng(2)
    z1, z2 = rng.normal(size=300), rng.normal(size=450)
    w1 = rng.uniform(0.5, 1.5, 300)
    w1 /= w1.sum()
    w2 = np.full(450, 1.0 / 450)
    assert _quantile_ot_sq(z1, w1, z2, w2) == _quantile_ot_sq(z2, w2, z1, w1)


def test_quantile_coupling_of_a_shift_is_the_shift_squared():
    rng = np.random.default_rng(3)
    z = rng.normal(size=2000)
    w = rng.uniform(0.5, 1.5, 2000)
    w /= w.sum()
    c = 0.7
    assert _quantile_ot_sq(z, w, z + c, w) == pytest.approx(c * c, rel=1e-12)
    u = np.full(2000, 1.0 / 2000)
    assert _quantile_ot_sq(z, u, z - c, u) == pytest.approx(c * c, rel=1e-12)


@pytest.mark.parametrize("projections", [0, -3])
def test_sliced_w2_rejects_fewer_than_one_projection(projections):
    g = TimeGrid(1.0, 4)
    rng = np.random.default_rng(4)
    mu, nu = random_measure(g, 1, 5, rng), random_measure(g, 1, 6, rng)
    with pytest.raises(DomainError, match="projection"):
        wasserstein2(mu, nu, mode="sliced", projections=projections)


def per_projection_sliced_w2(mu, nu, projections, seed):
    """Reference: sliced W2 that solves the weighted quantile coupling anew in
    every projection, with the draws in the order `wasserstein2` makes them."""
    rng = np.random.default_rng(seed)
    total = 0.0
    for _ in range(projections):
        profile = rng.dirichlet(np.ones(mu.grid.steps + 1))
        e = rng.standard_normal(mu.dim)
        e /= np.linalg.norm(e)
        z_mu = np.einsum("njd,j,d->n", mu.atoms, profile, e)
        z_nu = np.einsum("njd,j,d->n", nu.atoms, profile, e)
        total += _quantile_ot_sq(z_mu, mu.weights, z_nu, nu.weights)
    return float(np.sqrt(mu.dim * total / projections))


def uniform_clouds(n, m, d, seed, kind="normal"):
    """Two uniform clouds on an 8-step grid: independent Gaussian atoms,
    atoms drawn with repeats from a few distinct paths ("duplicated"), or
    0.0 and -0.0 paths mixed in ("signed_zeros"; the projections' sums turn
    both into +0.0, so a sign of zero must never reach the value)."""
    rng = np.random.default_rng(seed)
    g = TimeGrid(1.0, 8)
    a = rng.normal(size=(n, 9, d))
    b = rng.normal(size=(m, 9, d)) + 0.3
    if kind == "duplicated":
        a = a[rng.integers(0, max(n // 3, 1), n)]
        b = np.concatenate([a, b])[rng.integers(0, n + m, m)]
    elif kind == "signed_zeros":
        a[rng.random(n) < 0.5] = 0.0
        b[rng.random(m) < 0.5] = -0.0
        b[: m // 3] = 0.0
    return EmpiricalPathMeasure(g, a, None), EmpiricalPathMeasure(g, b, None)


UNIFORM_SLICED_CASES = [
    (n, m, d, kind)
    for n, m in [(1, 1), (1, 7), (7, 13), (300, 300), (250, 1000)]
    for d in (1, 2, 3)
    for kind in ("normal", "duplicated", "signed_zeros")
]


@pytest.mark.parametrize("n, m, d, kind", UNIFORM_SLICED_CASES)
def test_uniform_sliced_w2_is_the_per_projection_float(n, m, d, kind):
    # The uniform coupling is solved once per call and the projections sort
    # values; every value must be the float of the per-projection coupling.
    mu, nu = uniform_clouds(n, m, d, n + 7 * m + d, kind)
    got = wasserstein2(mu, nu, mode="sliced", projections=64, seed=d)
    assert got == per_projection_sliced_w2(mu, nu, 64, d)
    assert wasserstein2(nu, mu, mode="sliced", projections=64, seed=d) == per_projection_sliced_w2(
        nu, mu, 64, d
    )


@PROPERTY
@given(
    seed=SEEDS,
    n=st.integers(1, 40),
    m=st.integers(1, 40),
    d=st.integers(1, 3),
    kind=st.sampled_from(["normal", "duplicated", "signed_zeros"]),
)
def test_uniform_sliced_w2_is_the_per_projection_float_on_small_clouds(seed, n, m, d, kind):
    mu, nu = uniform_clouds(n, m, d, seed, kind)
    got = wasserstein2(mu, nu, mode="sliced", projections=32, seed=seed)
    assert got == per_projection_sliced_w2(mu, nu, 32, seed)


def test_near_uniform_and_mixed_pairs_take_the_weighted_sliced_path():
    # Weights 1/n (1 +- 1e-12) are not uniform: their cut points are running
    # sums, not k/n, so the pair must not take the once-per-call coupling.
    rng = np.random.default_rng(17)
    g = TimeGrid(1.0, 8)
    n, m = 300, 450
    a, b = rng.normal(size=(n, 9, 2)), rng.normal(size=(m, 9, 2))
    near = (1.0 + 1e-12 * rng.choice([-1.0, 1.0], n)) / n
    near /= near.sum()
    weighted = rng.uniform(0.5, 1.5, m)
    weighted /= weighted.sum()
    uniform_mu = EmpiricalPathMeasure(g, a, None)
    pairs = [
        (EmpiricalPathMeasure(g, a, near), EmpiricalPathMeasure(g, b, None)),
        (uniform_mu, EmpiricalPathMeasure(g, b, weighted)),
        (EmpiricalPathMeasure(g, b, weighted), uniform_mu),
    ]
    for mu, nu in pairs:
        got = wasserstein2(mu, nu, mode="sliced", projections=128, seed=5)
        assert got == per_projection_sliced_w2(mu, nu, 128, 5)


def test_uniform_sliced_w2_runs_in_bounded_memory():
    # One projection at a time: a (projections, atoms) batch would need
    # about 13 MB here, and it moves the last bit of the dot products.
    mu, nu = uniform_clouds(1000, 4000, 1, 0)
    tracemalloc.start()
    try:
        value = wasserstein2(mu, nu, mode="sliced", projections=128, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(value) and value > 0.0
    assert peak < 2 * 2**20


AT_THE_CAP = """
import json, resource, sys, time
import numpy as np
from pathmkv.measure import EXACT_ATOM_CAP, EmpiricalPathMeasure, _sup_cost_matrix, wasserstein2
from pathmkv.paths import TimeGrid

grid = TimeGrid(1.0, 50)
rand = np.random.default_rng(512)


def cloud(shift):
    walk = rand.normal(0.0, 0.2, size=(EXACT_ATOM_CAP, grid.steps + 1, 2))
    walk[:, 0] = rand.normal(size=(EXACT_ATOM_CAP, 2))
    w = rand.uniform(0.5, 1.5, EXACT_ATOM_CAP)
    return EmpiricalPathMeasure(grid, walk.cumsum(axis=1) + shift, w / w.sum())


mu, nu = cloud(0.0), cloud(0.3)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
start = time.perf_counter()
value = wasserstein2(mu, nu, mode="exact")
seconds = time.perf_counter() - start
grown_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024
product = float(np.sqrt(mu.weights @ _sup_cost_matrix(mu.atoms, nu.atoms) @ nu.weights))
mean_gap = float(np.linalg.norm(mu.weights @ mu.atoms[:, -1] - nu.weights @ nu.atoms[:, -1]))
print(json.dumps({"value": value, "seconds": seconds, "grown_mb": grown_mb,
                  "product": product, "mean_gap": mean_gap}))
"""


def test_weighted_exact_w2_at_the_atom_cap_in_bounded_time_and_memory():
    """Exact W2 between two non-uniform 512-atom clouds (the cap) of 2-d
    paths on a 50-step grid: the transport LP over 262,144 couplings.

    Run alone in a fresh interpreter so that its peak RSS is its own.  On a
    2-core x86-64 Linux machine (Python 3.11, scipy's HiGHS, one BLAS
    thread) the call took 3.0 to 3.5 s and raised the peak RSS by 190 MB
    in three runs with the mmap threshold pinned as below (190 MB left
    dynamic); the bounds are 10 s and 400 MB.  The cost matrix and its
    scratch take under 4 MB of that; the rest is the LP."""
    import json
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    # Left dynamic, glibc's mmap threshold is set by the last large block
    # freed before the LP, and the LP's peak follows it: it has read 231 to
    # 277 MB, depending on how the cost matrix was built.  Pinned at its
    # 32 MB maximum, the peak is the LP's own.
    env["MALLOC_MMAP_THRESHOLD_"] = str(32 * 1024 * 1024)
    proc = subprocess.run(
        [sys.executable, "-c", AT_THE_CAP], env=env, capture_output=True, text=True,
        timeout=300, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    # W2 lies between the terminal means' gap and the product coupling's cost
    assert out["mean_gap"] <= out["value"] <= out["product"]
    assert out["seconds"] < 10.0
    assert out["grown_mb"] < 400.0


def test_uniform_control_law_gives_the_floats_of_explicit_uniform_weights():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    lazy_a, lazy_b = EmpiricalControlMeasure(a), EmpiricalControlMeasure(b)
    full = np.full(9, 1.0 / 9)
    eager_a, eager_b = EmpiricalControlMeasure(a, full), EmpiricalControlMeasure(b, full)
    assert np.array_equal(lazy_a.weights, full)
    assert np.array_equal(lazy_a.mean(), eager_a.mean())
    assert wasserstein2_controls(lazy_a, lazy_b) == wasserstein2_controls(eager_a, eager_b)
    with pytest.raises(ConfigurationError):
        EmpiricalControlMeasure(a, np.full(9, 0.1))


def test_a_path_measure_without_atoms_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"at least one atom, got atoms of shape \(0, 3, 1\)"):
        EmpiricalPathMeasure(TimeGrid(1.0, 2), np.zeros((0, 3, 1)), None)


def test_a_control_law_without_atoms_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match=r"at least one atom, got atoms of shape \(0, 1\)"):
        EmpiricalControlMeasure(np.zeros((0, 1))).weights


def test_built_uniform_weights_are_the_validated_ones():
    # the 1/n weights a measure builds are not validated; they must still
    # be those a caller could pass, and read-only
    atoms = np.random.default_rng(3).normal(size=(7, 3, 2))
    built = EmpiricalPathMeasure(TimeGrid(1.0, 2), atoms, None)
    passed = EmpiricalPathMeasure(TimeGrid(1.0, 2), atoms, np.full(7, 1.0 / 7))
    assert np.array_equal(built.weights, passed.weights)
    assert not built.weights.flags.writeable
    assert np.array_equal(built.mean_at(1.0), passed.mean_at(1.0))


NON_FINITE_COSTS = {
    "inf_uniform": ([[np.inf, 1.0], [1.0, 0.0]], [0.5, 0.5]),
    "inf_weighted": ([[np.inf, 1.0], [1.0, 0.0]], [0.3, 0.7]),
    "nan_uniform": ([[0.0, 1.0], [np.nan, 0.0]], [0.5, 0.5]),
    "nan_weighted": ([[0.0, 1.0], [np.nan, 0.0]], [0.3, 0.7]),
    "minus_inf_rectangular": ([[0.0, 1.0, -np.inf], [1.0, 0.0, 2.0]], [0.2, 0.3, 0.5]),
}


@pytest.mark.parametrize("case", NON_FINITE_COSTS.values(), ids=NON_FINITE_COSTS.keys())
def test_a_non_finite_transport_cost_is_refused_on_both_solver_paths(case):
    # the assignment path used to return 1.0 for the inf cost, the LP path
    # raised scipy's ValueError
    cost, w_col = (np.array(a) for a in case)
    w_row = np.full(cost.shape[0], 1.0 / cost.shape[0])
    with pytest.raises(ConfigurationError, match="transport cost must be finite"):
        exact_ot_cost(cost, w_row, w_col)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("side", ["mu", "nu"])
def test_a_non_finite_atom_is_refused_by_exact_and_sliced_w2(side, bad):
    # sliced mode used to return nan where exact mode refuses the cost
    atoms = np.random.default_rng(3).normal(size=(2, 4, 5, 1))
    atoms[["mu", "nu"].index(side), 1, 2, 0] = bad
    mu, nu = (EmpiricalPathMeasure(TimeGrid(1.0, 4), a, None) for a in atoms)
    with pytest.raises(ConfigurationError, match="transport cost must be finite"):
        wasserstein2(mu, nu, mode="exact")
    with pytest.raises(ConfigurationError, match=f"{side} has a non-finite atom"):
        wasserstein2(mu, nu, mode="sliced", projections=4)
