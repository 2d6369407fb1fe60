import itertools

import numpy as np
import pytest

from pathmkv.errors import CapacityError, ConfigurationError
from pathmkv.measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    dirac,
    exact_ot_cost,
    mean_at,
    measure_from_paths,
    measure_to_csv,
    stopped_measure,
    wasserstein2,
    wasserstein2_controls,
)
from pathmkv.paths import PathGrid, TimeGrid, constant_path, stop, sup_norm


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
    mu = dirac(lin)
    s = stopped_measure(mu, 0.5)
    assert np.array_equal(s.atoms[0], stop(lin, 0.5).values)
    assert np.array_equal(stopped_measure(s, 0.5).atoms, s.atoms)
    assert np.array_equal(stopped_measure(mu, 1.0).atoms, mu.atoms)


def test_mean_at():
    g = TimeGrid(1.0, 4)
    c = constant_path(g, [1.0])
    mu = measure_from_paths([c, constant_path(g, [-1.0])])
    assert mean_at(mu, 0.7).coords[0] == 0.0
    assert mean_at(dirac(c), 0.3).coords[0] == 1.0
    w = EmpiricalPathMeasure(
        g,
        np.stack([constant_path(g, [0.0]).values, constant_path(g, [3.0]).values]),
        np.array([1 / 3, 2 / 3]),
    )
    assert mean_at(w, 0.5).coords[0] == pytest.approx(2.0)


def test_w2_identity_and_two_diracs():
    g = TimeGrid(1.0, 8)
    rng = np.random.default_rng(1)
    mu = random_measure(g, 2, 5, rng)
    assert wasserstein2(mu, mu) == pytest.approx(0.0, abs=1e-12)
    x = PathGrid(g, rng.normal(size=(9, 2)))
    y = PathGrid(g, rng.normal(size=(9, 2)))
    d = wasserstein2(dirac(x), dirac(y))
    assert d == pytest.approx(sup_norm(x - y), rel=1e-12)


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


def test_control_measure_and_w2():
    nu1 = EmpiricalControlMeasure(np.array([[0.0], [1.0]]))
    nu2 = EmpiricalControlMeasure(np.array([[0.0], [1.0]]))
    assert wasserstein2_controls(nu1, nu2) == pytest.approx(0.0, abs=1e-9)
    nu3 = EmpiricalControlMeasure(np.array([[2.0], [3.0]]))
    assert wasserstein2_controls(nu1, nu3) == pytest.approx(2.0, rel=1e-9)
    assert nu1.mean() == pytest.approx([0.5])


def test_measure_csv_dump():
    g = TimeGrid(1.0, 2)
    mu = measure_from_paths([constant_path(g, [1.0]), constant_path(g, [2.0])])
    text = measure_to_csv(mu)
    assert text.count("atom,") == 2
    assert "weight,0.5" in text


def test_transport_lp_matches_dense_linprog_reference():
    from scipy.optimize import linprog

    rng = np.random.default_rng(31)
    n, m = 7, 5
    cost = rng.random((n, m))
    w_row = rng.uniform(0.5, 1.5, n)
    w_row /= w_row.sum()
    w_col = rng.uniform(0.5, 1.5, m)
    w_col /= w_col.sum()
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m : (i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    ref = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([w_row, w_col]),
                  bounds=(0, None), method="highs")
    assert ref.success
    assert exact_ot_cost(cost, w_row, w_col) == pytest.approx(ref.fun, rel=1e-12, abs=1e-15)


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
