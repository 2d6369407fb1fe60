import io
import tracemalloc

import numpy as np
import pytest

import pathmkv.paths as paths
from pathmkv.errors import ConfigurationError, DomainError
from pathmkv.paths import (
    PathGrid,
    TimeGrid,
    bump,
    constant_path,
    node_major,
    path_to_csv,
    stop,
    sup_norm,
    sup_seminorm,
    sup_seminorm_sq_distance,
    sup_seminorm_sq_values,
)


def linear_path(grid, target):
    target = np.atleast_1d(target)
    vals = np.linspace(0, 1, grid.steps + 1)[:, None] * target[None, :]
    return PathGrid(grid, vals)


def random_path(grid, d, rng):
    return PathGrid(grid, rng.normal(size=(grid.steps + 1, d)))


def test_grid_basics():
    g = TimeGrid(2.0, 4)
    assert g.dt == 0.5
    assert np.allclose(g.times, [0, 0.5, 1.0, 1.5, 2.0])
    assert g.node(0.74) == 1
    assert g.node(0.76) == 2
    with pytest.raises(DomainError):
        g.node(2.5)
    for T, steps in ((-1.0, 4), (float("nan"), 4), (float("inf"), 4), (1.0, 2.5), (1.0, 0)):
        with pytest.raises(ConfigurationError):
            TimeGrid(T, steps)
    assert TimeGrid(1.0, np.int64(4)).dt == 0.25


def test_stop_at_horizon_is_identity():
    g = TimeGrid(1.0, 10)
    rng = np.random.default_rng(0)
    x = random_path(g, 2, rng)
    assert np.array_equal(stop(x, 1.0).values, x.values)


def test_stop_constant_path_invariant():
    g = TimeGrid(1.0, 8)
    c = constant_path(g, [2.0, -1.0])
    for t in [0.0, 0.3, 0.7, 1.0]:
        assert np.array_equal(stop(c, t).values, c.values)


def test_stop_linear_path_freezes():
    g = TimeGrid(1.0, 10)
    x = linear_path(g, [1.0])
    y = stop(x, 0.5)
    assert np.array_equal(y.values[:6], x.values[:6])
    assert np.all(y.values[6:] == 0.5)


def test_stop_idempotent():
    g = TimeGrid(1.0, 16)
    rng = np.random.default_rng(1)
    x = random_path(g, 3, rng)
    for t in [0.0, 0.25, 0.8]:
        once = stop(x, t)
        assert np.array_equal(stop(once, t).values, once.values)


def test_stop_domain_error():
    g = TimeGrid(1.0, 4)
    with pytest.raises(DomainError):
        stop(constant_path(g, [0.0]), 1.5)


def test_bump_zero_is_identity():
    g = TimeGrid(1.0, 6)
    rng = np.random.default_rng(2)
    x = random_path(g, 2, rng)
    assert np.array_equal(bump(x, 0.5, [0.0, 0.0]).values, x.values)


def test_bump_of_zero_path_is_step():
    g = TimeGrid(1.0, 5)
    h = [1.5]
    y = bump(constant_path(g, 0.0), 0.0, h)
    assert np.all(y.values == 1.5)


def test_bump_supnorm_is_direction_norm():
    g = TimeGrid(1.0, 12)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = random_path(g, 2, rng)
        h = rng.normal(size=2)
        t = rng.choice(g.times)
        gap = bump(x, t, h).values - x.values
        assert sup_norm(PathGrid(g, gap)) == pytest.approx(np.linalg.norm(h), rel=1e-12)


def test_bump_dimension_mismatch():
    g = TimeGrid(1.0, 4)
    with pytest.raises(ConfigurationError):
        bump(constant_path(g, [0.0, 0.0]), 0.5, [1.0])


def test_seminorm_zero_and_constant():
    g = TimeGrid(1.0, 9)
    assert sup_seminorm(constant_path(g, np.zeros(3)), 0.7) == 0.0
    c = constant_path(g, [3.0, 4.0])
    for t in g.times:
        assert sup_seminorm(c, t) == pytest.approx(5.0)


def test_seminorm_sine_grid_max():
    g = TimeGrid(1.0, 1000)
    vals = np.sin(2 * np.pi * g.times)[:, None]
    x = PathGrid(g, vals)
    assert sup_seminorm(x, 0.25) == pytest.approx(1.0, abs=1e-5)


def test_seminorm_nondecreasing_in_t():
    g = TimeGrid(1.0, 30)
    rng = np.random.default_rng(4)
    x = random_path(g, 2, rng)
    vals = [sup_seminorm(x, t) for t in g.times]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(sup_norm(x))


def test_supnorm_triangle_inequality():
    g = TimeGrid(1.0, 20)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y = random_path(g, 3, rng), random_path(g, 3, rng)
        assert sup_norm(PathGrid(g, x.values + y.values)) <= sup_norm(x) + sup_norm(y) + 1e-12


def test_bump_invisible_before_onset():
    g = TimeGrid(1.0, 10)
    rng = np.random.default_rng(6)
    x = random_path(g, 2, rng)
    h = [1.0, -1.0]
    t = 0.6
    b = bump(x, t, h)
    for s in [0.0, 0.2, 0.5]:
        assert np.array_equal(stop(b, s).values, stop(x, s).values)


def test_csv_roundtrip():
    g = TimeGrid(1.0, 7)
    rng = np.random.default_rng(7)
    x = random_path(g, 2, rng)
    text = path_to_csv(x)
    assert text.splitlines()[0] == "t,c1,c2"
    table = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(table[:, 0], g.times)
    assert np.array_equal(table[:, 1:], x.values)


def test_path_is_read_only_and_leaves_the_callers_array_writable():
    g = TimeGrid(1.0, 4)
    a = np.zeros((5, 2))
    x = PathGrid(g, a)
    assert a.flags.writeable
    assert np.shares_memory(x.values, a)  # a view: the values are not copied
    with pytest.raises(ValueError):
        x.values[0, 0] = 1.0


def test_time_snapping():
    g = TimeGrid(1.0, 10)
    x = linear_path(g, [1.0])
    # 0.349 snaps to node 3 (t = 0.3), 0.351 snaps to node 4.
    assert np.array_equal(stop(x, 0.349).values, stop(x, 0.3).values)
    assert np.array_equal(stop(x, 0.351).values, stop(x, 0.4).values)


# Streamed whole-path reductions against their one-shot forms.  A chunk of 5
# nodes (node-major) or of 5 * N / (j + 1) particles (C-ordered) puts several
# chunk edges, and a partial last chunk, inside these small blocks.
CHUNK_NODES = 5


def one_shot_sq(values, j, start=0):
    return (values[:, start : j + 1, :] ** 2).sum(axis=2).max(axis=1)


def particle_block(layout, n, m, d, seed, special=True):
    r = np.random.default_rng(seed)
    v = 3.0 * r.normal(size=(n, m + 1, d))
    if special:
        v[1, 3, 0] = np.inf
        v[2, CHUNK_NODES, d - 1] = np.nan
    if layout == "c":
        return v
    out = node_major(n, m + 1, d)
    out[...] = v
    return out


@pytest.mark.parametrize("layout", ["node_major", "c"])
@pytest.mark.parametrize("d", [1, 3, 16])
def test_streamed_seminorm_equals_the_one_shot_pass(monkeypatch, layout, d):
    n, m = 13, 24
    monkeypatch.setattr(paths, "REDUCE_ELEMENTS", CHUNK_NODES * n * d)
    values = particle_block(layout, n, m, d, seed=d)
    assert values.flags.c_contiguous == (layout == "c")
    for j in [0, CHUNK_NODES - 1, CHUNK_NODES, CHUNK_NODES + 1, m]:
        got, want = sup_seminorm_sq_values(values, j), one_shot_sq(values, j)
        np.testing.assert_array_equal(got, want)
        assert np.isinf(got[1]) == (j >= 3) and np.isnan(got[2]) == (j >= CHUNK_NODES)


@pytest.mark.parametrize("layout", ["node_major", "c"])
@pytest.mark.parametrize("d", [1, 3, 16])
def test_streamed_seminorm_gap_equals_the_difference_pass(monkeypatch, layout, d):
    n, m = 13, 24
    monkeypatch.setattr(paths, "REDUCE_ELEMENTS", CHUNK_NODES * n * d)
    a = particle_block(layout, n, m, d, seed=d)
    b = particle_block(layout, n, m, d, seed=d + 100, special=False)
    for start, j in [(0, 0), (0, CHUNK_NODES - 1), (0, CHUNK_NODES), (0, CHUNK_NODES + 1),
                     (0, m), (CHUNK_NODES, m), (CHUNK_NODES + 1, m - 1)]:
        got = sup_seminorm_sq_distance(a, b, j, start)
        np.testing.assert_array_equal(got, one_shot_sq(a - b, j, start))
    with pytest.raises(ConfigurationError):
        sup_seminorm_sq_distance(a, b[:, :-1], m - 1)


@pytest.mark.parametrize("layout", ["node_major", "c"])
def test_streamed_seminorm_at_the_default_chunk(layout):
    # N = 1000 at d = 1 puts 262 nodes in a default node-major chunk
    n, m = 1000, 600
    edge = paths.REDUCE_ELEMENTS // n
    values = particle_block(layout, n, m, 1, seed=7)
    for j in [0, edge - 1, edge, edge + 1, m]:
        np.testing.assert_array_equal(sup_seminorm_sq_values(values, j), one_shot_sq(values, j))


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("order", ["node_major", "c"])
def test_seminorm_passes_at_suite_size_peak_below_8_mb(order):
    # one (4000, 1001, 1) block is 32 MB; the one-shot passes held two or
    # three temporaries that large.  A C-ordered block is reduced in the
    # same node chunks as a node-major one.
    from pathmkv.sde import ParticleEnsemble, s2_distance

    grid = TimeGrid(1.0, 1000)
    r = np.random.default_rng(1)
    ens = []
    for _ in range(2):
        shape = (4000, grid.steps + 1, 1)
        values = node_major(*shape) if order == "node_major" else np.empty(shape)
        values[...] = r.normal(size=values.shape)
        ens.append(ParticleEnsemble(grid, 0.0, values, None, 0))
    assert traced_peak(lambda: ens[0].seminorm_sq) <= 8 * 2**20
    assert traced_peak(lambda: s2_distance(ens[0], ens[1])) <= 8 * 2**20
