import math
import os
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from pathmkv.control import constant_policy
from pathmkv.errors import (
    ConfigurationError,
    DomainError,
    IntegrationBlowupError,
    NonConvergenceError,
)
from pathmkv.hilbert import SpectralOperator
from pathmkv.models import (
    make_controlled_linear,
    make_frozen,
    make_meanfield_growth,
    make_meanfield_ou,
    make_ou,
    make_ou_drift,
)
from pathmkv.paths import TimeGrid
from pathmkv.rng import brownian_increments, refine_increments
from pathmkv.sde import (
    ModelSpec,
    brownian_block,
    constant_initial,
    draw_scope,
    flow_restart_check,
    gaussian_initial,
    integrate,
    integrate_picard,
    integrate_yosida,
    ramp_initial,
    s2_distance,
    shifted_initial,
    stopped_initial,
    two_point_initial,
)


def test_frozen_dynamics_constant_paths():
    grid = TimeGrid(1.0, 50)
    model = make_frozen(grid)
    ens = integrate(model, constant_initial([2.5]), n_particles=8, seed=0)
    assert np.all(ens.values == 2.5)


def test_a_run_holds_its_paths_and_not_its_noise_after_it_returns():
    # (4000, 1001, 1) paths are 30.5 MB; the (4000, 1000, 1) block the run
    # draws for itself would be 30.5 MB more
    import tracemalloc

    model = make_ou(TimeGrid(1.0, 1000))
    tracemalloc.start()
    try:
        ens = integrate(model, constant_initial([0.0]), None, 0.0, 4000, 1)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert ens.values.nbytes <= held < 40 * 2**20


def test_noise_increments_are_iid_gaussian():
    dt = 0.01
    noise = brownian_increments(seed=3, n_particles=200, n_steps=50, dk=2, dt=dt)
    flat = noise.ravel()
    n = flat.size
    assert abs(flat.mean()) < 4 * math.sqrt(dt / n)
    assert abs(flat.var() - dt) < 5 * dt * math.sqrt(2.0 / n)
    # distinct particles get distinct streams
    assert not np.array_equal(noise[0], noise[1])


def test_refine_increments_preserves_brownian_path():
    noise = brownian_increments(seed=1, n_particles=4, n_steps=16, dk=1, dt=1.0 / 16)
    [coarse] = refine_increments(1, 4, 16, 1, 1.0 / 16, [4])
    assert coarse.shape == (4, 4, 1)
    assert np.allclose(coarse.sum(axis=1), noise.sum(axis=1))


def test_bit_reproducibility():
    grid = TimeGrid(1.0, 64)
    model = make_ou(grid, a=-1.0, s0=0.5)
    a = integrate(model, constant_initial([1.0]), n_particles=32, seed=11)
    b = integrate(model, constant_initial([1.0]), n_particles=32, seed=11)
    assert np.array_equal(a.values, b.values)
    c = integrate(model, constant_initial([1.0]), n_particles=32, seed=12)
    assert not np.array_equal(a.values, c.values)


def test_meanfield_mean_constant_and_particle_decay():
    grid = TimeGrid(1.0, 200)
    model = make_meanfield_ou(grid, theta=1.0, s0=0.0)
    ens = integrate(model, two_point_initial(-1.0, 1.0), n_particles=64, seed=5)
    means = ens.values.mean(axis=0)[:, 0]
    assert np.abs(means).max() < 1e-12
    # each particle decays like e^{-t} x0 up to O(dt)
    times = grid.times
    x0 = ens.values[:, 0, 0]
    target = x0[:, None] * np.exp(-times)[None, :]
    assert np.abs(ens.values[:, :, 0] - target).max() < 1.0 * grid.dt


def test_ou_terminal_variance_oracle():
    grid = TimeGrid(1.0, 500)
    model = make_ou(grid, a=-1.0, s0=0.5)
    n = 3000
    ens = integrate(model, constant_initial([0.0]), n_particles=n, seed=9)
    xt = ens.values[:, -1, 0]
    var_theory = 0.25 * (1 - math.exp(-2.0)) / 2.0
    se_var = xt.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    assert abs(np.mean(xt)) <= 3 * xt.std(ddof=1) / math.sqrt(n)
    assert abs(xt.var(ddof=1) - var_theory) <= 3 * se_var + 2 * grid.dt * var_theory


def test_coefficient_calls_match_on_stopped_paths():
    # b_t(x, ...) and b_t(stop(x, t), ...) agree bit for bit: the stopped
    # view clamps reads at the node of t, for uniform and weighted laws alike.
    from pathmkv.paths import stop_values
    from pathmkv.sde import StoppedView

    grid = TimeGrid(1.0, 40)
    model = make_meanfield_ou(grid, theta=1.3, s0=0.2)
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(8, grid.steps + 1, 1))
    j = grid.node(0.4)
    stopped = stop_values(vals, j)
    weights = rng.uniform(0.5, 1.5, size=8)
    weights /= weights.sum()
    for block_a, block_b, w in ((vals, stopped, None), (vals, stopped, weights)):
        b1 = model.drift_at(0.4, StoppedView(grid, block_a, j), StoppedView(grid, block_a, j, w), None, None)
        b2 = model.drift_at(0.4, StoppedView(grid, block_b, j), StoppedView(grid, block_b, j, w), None, None)
        assert np.array_equal(b1, b2)


def test_nonanticipativity_of_solution():
    grid = TimeGrid(1.0, 100)
    model = make_ou(grid, a=-1.0, s0=0.5)
    init = ramp_initial(scale=1.0)
    t0 = 0.3
    a = integrate(model, init, t0=t0, n_particles=16, seed=2)
    b = integrate(model, stopped_initial(init, t0), t0=t0, n_particles=16, seed=2)
    assert np.array_equal(a.values, b.values)


def test_initial_datum_continuity():
    grid = TimeGrid(1.0, 100)
    model = make_meanfield_ou(grid, theta=1.0, s0=0.2)
    init = gaussian_initial(0.0, 1.0)
    delta = 0.05
    a = integrate(model, init, n_particles=64, seed=3)
    b = integrate(model, shifted_initial(init, [delta]), n_particles=64, seed=3)
    # synchronous coupling on one noise block: the scheme's step grows the
    # sup-seminorm gap by at most e^{eta+ dt}(1 + 2L dt), so the S2 gap at T is
    # at most e^{(eta+ + 2L) T} delta (0.369 here)
    stability = math.exp((max(model.A.eta, 0.0) + 2.0 * model.lipschitz) * grid.T)
    gap = s2_distance(a, b)
    assert gap <= stability * delta
    assert gap > 0.0


def test_weak_error_halves_with_dt():
    # Drift-form OU (decay in b, A = 0): the scheme has genuine O(dt) mean error.
    x0, kappa, s0 = 4.0, 1.0, 0.1
    n = 4000
    fine_steps = 400
    factors = (8, 4, 2)
    rungs = refine_increments(71, n, fine_steps, 1, 1.0 / fine_steps, factors)
    errors = []
    for factor, noise in zip(factors, rungs):
        steps = fine_steps // factor
        grid = TimeGrid(1.0, steps)
        model = make_ou_drift(grid, kappa=kappa, s0=s0)
        ens = integrate(
            model, constant_initial([x0]), n_particles=n, seed=71, noise=noise
        )
        errors.append(abs(ens.values[:, -1, 0].mean() - x0 * math.exp(-kappa)))
    assert errors[0] > errors[1] > errors[2]
    for coarse, fine in zip(errors, errors[1:]):
        assert 0.3 <= fine / coarse <= 0.7


def test_well_posed_models_with_a_large_drift_integrate():
    # constant drift 100 with L = 0, and a control entering with c = 100:
    # both are well posed, and X_T is 100 on a grid whose dt sums exactly
    grid = TimeGrid(1.0, 16)
    constant_drift = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        drift=lambda t, xs, mu, u, nu: np.full((xs.n, 1), 100.0),
    )
    ens = integrate(constant_drift, constant_initial([0.0]), n_particles=8, seed=0)
    assert np.all(ens.values[:, -1, 0] == 100.0)
    controlled = make_controlled_linear(grid, c=100.0)
    ens = integrate(controlled, constant_initial([0.0]), constant_policy([1.0]), n_particles=8, seed=0)
    assert np.all(ens.values[:, -1, 0] == 100.0)


def test_a_t_end_before_t0_is_refused_before_any_noise_is_drawn(monkeypatch):
    import pathmkv.rng

    def no_draws(*args, **kwargs):
        raise AssertionError("drew a noise block before checking t_end")

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", no_draws)
    model = make_ou(TimeGrid(1.0, 20), a=-1.0, s0=0.5)
    with pytest.raises(DomainError, match="precedes t0"):
        integrate(model, constant_initial([0.0]), t0=0.5, n_particles=8, seed=0, t_end=0.25)


def test_picard_converges_in_one_iteration_without_coupling():
    grid = TimeGrid(1.0, 50)
    model = make_ou(grid, a=-1.0, s0=0.3)  # b independent of the law
    res = integrate_picard(model, constant_initial([1.0]), n_particles=16, seed=4)
    assert res.iterations == 1
    assert res.gaps[0] == 0.0


def test_picard_matches_integrate_and_contracts():
    grid = TimeGrid(1.0, 100)
    model = make_meanfield_ou(grid, theta=1.0, s0=0.1)
    init = two_point_initial(-1.0, 1.0)
    res = integrate_picard(model, init, n_particles=32, seed=6, tol=1e-10)
    direct = integrate(model, init, n_particles=32, seed=6)
    assert s2_distance(res.ensemble, direct) <= 1e-9 + 10 * grid.dt
    gaps = res.gaps
    assert len(gaps) >= 3
    for a, b in zip(gaps[1:], gaps[2:]):
        if a > 0:
            assert b < a
    ratios = [b / a for a, b in zip(gaps[1:-1], gaps[2:]) if a > 0]
    assert all(r < 1.0 for r in ratios)


def test_picard_nonconvergence_and_window_split():
    # Lipschitz constant scaled x50: the law-map iterates grow like
    # (50 T)^k / k! and the unsplit window cannot converge in 25 passes.
    grid = TimeGrid(1.0, 200)
    model = make_meanfield_growth(grid, theta=50.0)
    init = constant_initial([1.0])
    with pytest.raises(NonConvergenceError) as exc:
        integrate_picard(model, init, n_particles=16, seed=7, max_iter=25)
    assert len(exc.value.gaps) == 25
    res = integrate_picard(
        model, init, n_particles=16, seed=7, max_iter=25, window=0.01
    )
    direct = integrate(model, init, n_particles=16, seed=7)
    assert s2_distance(res.ensemble, direct) <= 1e-8 + 10 * grid.dt


def test_picard_factorial_decay_on_growth_model():
    grid = TimeGrid(1.0, 100)
    model = make_meanfield_growth(grid, theta=1.0)
    res = integrate_picard(model, constant_initial([1.0]), n_particles=8, seed=3)
    gaps = res.gaps
    assert len(gaps) >= 5
    for a, b in zip(gaps, gaps[1:]):
        assert b < a


def test_yosida_identical_when_a_zero():
    grid = TimeGrid(1.0, 50)
    model = make_ou_drift(grid, kappa=1.0, s0=0.2)  # A = 0
    base = integrate(model, constant_initial([1.0]), n_particles=16, seed=8)
    for n in (2, 8, 32):
        yos = integrate_yosida(model, n, constant_initial([1.0]), n_particles=16, seed=8)
        assert np.array_equal(yos.values, base.values)


def test_yosida_ladder_strictly_decreasing():
    grid = TimeGrid(1.0, 200)
    model = make_ou(grid, a=-1.0, s0=0.5)
    init = constant_initial([1.0])
    base = integrate(model, init, n_particles=64, seed=9)
    dists = []
    for n in (2, 8, 32):
        yos = integrate_yosida(model, n, init, n_particles=64, seed=9)
        dists.append(s2_distance(yos, base))
    assert dists[0] > dists[1] > dists[2]


def test_yosida_rejects_small_index():
    grid = TimeGrid(1.0, 10)
    model = make_ou(grid, a=-1.0, s0=0.1)
    with pytest.raises(DomainError):
        integrate_yosida(model, -2.0, constant_initial([0.0]), n_particles=4, seed=0)


def test_s2_distance_properties():
    grid = TimeGrid(1.0, 40)
    model = make_ou(grid, a=-1.0, s0=0.5)
    a = integrate(model, constant_initial([0.0]), n_particles=8, seed=10)
    assert s2_distance(a, a) == 0.0
    shifted = integrate(
        model, constant_initial([0.0]), n_particles=8, seed=10
    )
    shifted_vals = shifted.values + 0.75
    from dataclasses import replace

    b = replace(shifted, values=shifted_vals)
    assert s2_distance(a, b) == pytest.approx(0.75, rel=1e-12)
    small = integrate(model, constant_initial([0.0]), n_particles=4, seed=10)
    with pytest.raises(ConfigurationError):
        s2_distance(a, small)


def test_flow_restart_gap_is_zero_on_builtin_models():
    grid = TimeGrid(1.0, 64)
    init = two_point_initial(-1.0, 1.0)
    for model in (
        make_frozen(grid),
        make_ou(grid, a=-1.0, s0=0.5),
        make_meanfield_ou(grid, theta=1.0, s0=0.2),
        make_ou_drift(grid, kappa=1.0, s0=0.3),
    ):
        for s in (0.0, 0.5, 1.0):
            report = flow_restart_check(
                model, init, t0=0.0, s=s, n_particles=16, seed=11
            )
            assert report["max_particle_gap"] == 0.0


def test_flow_restart_check_draws_its_noise_block_once(monkeypatch):
    # the full, head and tail runs share one block: it is what each would draw
    import pathmkv.rng

    draws = []
    draw = pathmkv.rng.brownian_increments

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    grid = TimeGrid(1.0, 32)
    report = flow_restart_check(
        make_ou(grid, a=-1.0, s0=0.5), gaussian_initial(0.5, 0.2), s=0.5, n_particles=16, seed=11
    )
    assert report["max_particle_gap"] == 0.0
    assert draws == [(11, 16, 32, 1, grid.dt)]


def _counted_draws(monkeypatch):
    """Record (seed, N, M, dK) of every rng.brownian_increments call, and
    whether a scope still held a block when the draw began."""
    import pathmkv.rng
    import pathmkv.sde

    draws, held = [], []
    draw = pathmkv.rng.brownian_increments

    def counted(seed, n_particles, n_steps, dk, dt):
        held.append(bool(pathmkv.sde._kept))
        draws.append((seed, n_particles, n_steps, dk))
        return draw(seed, n_particles, n_steps, dk, dt)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    return draws, held


def test_a_draw_scope_serves_each_key_from_one_draw_as_read_only_prefixes(monkeypatch):
    grid = TimeGrid(1.0, 24)
    model, other_grid = make_ou(grid, a=-1.0, s0=0.5), make_ou(TimeGrid(2.0, 24), a=-1.0, s0=0.5)
    outside = brownian_block(model, 32, 5)
    draws, held = _counted_draws(monkeypatch)
    with draw_scope():
        full = brownian_block(model, 100, 5)
        prefix = brownian_block(model, 32, 5)
        again = brownian_block(model, 100, 5)
        # a new key, then a longer request of the old one: each draws, and
        # the kept block is dropped before the draw begins
        shifted = brownian_block(model, 100, 6)
        longer = brownian_block(model, 120, 6)
        other_dt = brownian_block(other_grid, 120, 6)
    assert draws == [(5, 100, 24, 1), (6, 100, 24, 1), (6, 120, 24, 1), (6, 120, 24, 1)]
    assert held == [False, False, False, False]
    assert np.array_equal(prefix, outside) and np.array_equal(full[:32], outside)
    assert np.array_equal(again, full) and np.array_equal(longer[:100], shifted)
    assert not np.array_equal(other_dt, longer)
    for block in (full, prefix, again, shifted, longer, other_dt):
        assert not block.flags.writeable
        with pytest.raises(ValueError):
            block[0, 0, 0] = 0.0
        assert block[:, 3].flags.c_contiguous  # node-major, as outside a scope
    # the scope is gone on exit: every call draws again
    brownian_block(model, 32, 5)
    brownian_block(model, 32, 5)
    assert draws[4:] == [(5, 32, 24, 1)] * 2


def test_a_draw_scope_opened_inside_another_is_that_scope(monkeypatch):
    model = make_ou(TimeGrid(1.0, 24), a=-1.0, s0=0.5)
    draws, _ = _counted_draws(monkeypatch)
    with draw_scope():
        outer = brownian_block(model, 64, 5)
        with draw_scope():
            inner = brownian_block(model, 64, 5)
        after = brownian_block(model, 64, 5)
    assert draws == [(5, 64, 24, 1)]
    assert np.shares_memory(inner, outer) and np.shares_memory(after, outer)
    # the outermost exit releases the block: every call draws again
    brownian_block(model, 64, 5)
    brownian_block(model, 64, 5)
    assert draws[1:] == [(5, 64, 24, 1)] * 2


@pytest.mark.parametrize("shape", [(203, 39, 1), (202, 40, 1), (203, 40, 2)])
def test_integrate_rejects_a_block_of_the_wrong_shape(shape):
    # one step short, one particle short, and d + 1 wide
    model = make_ou(TimeGrid(1.0, 40), a=-1.0, s0=0.5)
    with pytest.raises(ConfigurationError, match=r"noise override has shape \(%d, %d, %d\)" % shape):
        integrate(model, constant_initial([0.0]), None, 0.0, 203, 33, noise=np.zeros(shape))


def test_runs_in_a_draw_scope_equal_runs_that_draw_their_own_block():
    grid = TimeGrid(1.0, 40)
    model = make_ou(grid, a=-1.0, s0=0.5)
    init = gaussian_initial(0.5, 0.2)
    own = [integrate(model, init, None, 0.0, n, 9).values for n in (64, 16)]
    with draw_scope():
        scoped = [integrate(model, init, None, 0.0, n, 9).values for n in (64, 16)]
        restart = flow_restart_check(model, init, None, 0.0, 0.5, 16, 9)
    assert all(np.array_equal(a, b) for a, b in zip(own, scoped))
    assert restart["max_particle_gap"] == 0.0


def test_rectangular_noise_dimensions():
    # the noise is as wide as the state: a coordinate without noise is a zero
    # column of the diffusion, and a narrower diffusion is refused
    grid = TimeGrid(1.0, 100)

    def model_with(diffusion):
        return ModelSpec(
            grid=grid,
            A=SpectralOperator([0.0, 0.0]),
            diffusion=diffusion,
            lipschitz=0.5,
            tag="rect",
        )

    half = model_with(lambda t, xs, mu, u, nu: np.tile([0.5, 0.0], (xs.n, 1)))
    ens = integrate(half, constant_initial([0.0, 0.0]), n_particles=64, seed=0)
    assert ens.values[:, -1, 0].std() > 0.1
    assert np.all(ens.values[:, :, 1] == 0.0)
    assert brownian_block(half, 64, 0).shape == (64, 100, 2)

    with pytest.raises(ConfigurationError, match=r"model 'rect': diffusion returned shape \(3, 1\)"):
        model_with(lambda t, xs, mu, u, nu: np.full((xs.n, 1), 0.5))


def test_a_diffusion_row_is_broadcast_over_the_particles():
    grid = TimeGrid(1.0, 16)
    row = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0, 0.0]),
        diffusion=lambda t, xs, mu, u, nu: np.array([0.5, 0.0]),
        lipschitz=0.5,
    )
    full = replace(row, diffusion=lambda t, xs, mu, u, nu: np.tile([0.5, 0.0], (xs.n, 1)))
    init = constant_initial([0.0, 0.0])
    a = integrate(row, init, n_particles=8, seed=3)
    assert np.array_equal(a.values, integrate(full, init, n_particles=8, seed=3).values)


def _row_and_block(model):
    """The model, whose diffusion returns a (d,) row, and a copy whose
    diffusion returns that row tiled into the (N, d) block."""
    row = model.diffusion

    def block(t, xs, mu, u, nu):
        return np.tile(row(t, xs, mu, u, nu), (xs.n, 1))

    return model, replace(model, diffusion=block)


def _reference_run(model, init, policy, t0, n_particles, seed):
    """The step as it was written before the kernel took the diffusion row:
    X_j copied, then b dt and the (N, d) block sigma * dB added, then the
    semigroup factor."""
    from pathmkv.measure import EmpiricalControlMeasure, StoppedView

    grid, d, dt = model.grid, model.A.dim, model.grid.dt
    values = np.empty((n_particles, grid.steps + 1, d))
    j0 = grid.node(t0)
    values[:, : j0 + 1] = init.sample(seed, n_particles, grid, d)[:, : j0 + 1]
    noise = brownian_increments(seed, n_particles, grid.steps, d, dt)
    for j in range(j0, grid.steps):
        t, xs = j * dt, StoppedView(grid, values, j)
        u = None if policy is None else np.array(policy.actions(t, xs, xs))
        nu = None if u is None else EmpiricalControlMeasure(u)
        incr = values[:, j, :].copy()
        if model.drift is not None:
            incr = values[:, j, :] + dt * model.drift_at(t, xs, xs, u, nu)
        incr += model.diffusion_at(t, xs, xs, u, nu) * noise[:, j]
        values[:, j + 1, :] = np.exp(model.A.eigenvalues * dt) * incr
    return values


ROW_CASES = [
    # (factory, uses a policy): no drift with A != 0, a mean-field drift, and
    # a drift that reads the actions of a constant policy
    pytest.param(lambda grid, d: make_ou(grid, a=-1.0, s0=0.4, d=d), False, id="no_drift"),
    pytest.param(lambda grid, d: make_meanfield_ou(grid, theta=1.5, s0=0.4, d=d), False, id="drift"),
    pytest.param(lambda grid, d: make_controlled_linear(grid, c=0.8, s0=0.4, d=d), True, id="policy"),
]


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("make, controlled", ROW_CASES)
def test_a_diffusion_row_and_its_block_give_the_same_paths(make, controlled, d):
    grid = TimeGrid(1.0, 40)
    row, block = _row_and_block(make(grid, d))
    out = row.diffusion(0.0, None, None, None, None)
    assert out.shape == (d,) and not out.flags.writeable
    policy = constant_policy(np.linspace(-0.5, 0.5, d)) if controlled else None
    init = gaussian_initial(0.2, 1.0)
    common = dict(n_particles=24, seed=5)
    runs = [integrate(m, init, policy, 0.25, **common) for m in (row, block)]
    assert np.array_equal(runs[0].values, runs[1].values)
    assert np.array_equal(runs[0].values, _reference_run(row, init, policy, 0.25, **common))
    if controlled:
        assert np.array_equal(runs[0].controls, runs[1].controls)
    picard = [integrate_picard(m, init, policy, window=0.5, **common) for m in (row, block)]
    assert picard[0].gaps == picard[1].gaps
    assert np.array_equal(picard[0].ensemble.values, picard[1].ensemble.values)
    flows = [flow_restart_check(m, init, policy, 0.0, 0.5, **common) for m in (row, block)]
    assert flows[0] == flows[1] == {"split_time": 0.5, "max_particle_gap": 0.0}


@pytest.mark.parametrize(
    "diffusion, shape",
    [
        (lambda t, xs, mu, u, nu: np.full(3, 0.5), (3,)),
        (lambda t, xs, mu, u, nu: np.full(1, 0.5), (1,)),
        (lambda t, xs, mu, u, nu: np.full((xs.n, 2, 1), 0.5), (3, 2, 1)),
    ],
    ids=["long_row", "short_row", "three_axes"],
)
def test_a_diffusion_of_the_wrong_shape_is_refused(diffusion, shape):
    # an (N, 1) block is refused in test_rectangular_noise_dimensions
    msg = re.escape(f"model 'bad_sigma': diffusion returned shape {shape}, expected (3, 2)")
    with pytest.raises(ConfigurationError, match=msg):
        ModelSpec(
            grid=TimeGrid(1.0, 4), A=SpectralOperator([0.0, 0.0]), diffusion=diffusion,
            lipschitz=1.0, tag="bad_sigma",
        )


def test_the_step_kernel_checks_the_shape_of_the_diffusion():
    # three rows pass the check at build time, which samples three particles;
    # a run of eight must refuse them, as the broadcast did
    model = ModelSpec(
        grid=TimeGrid(1.0, 4), A=SpectralOperator([0.0, 0.0]),
        diffusion=lambda t, xs, mu, u, nu: np.full((3, 2), 0.5), lipschitz=1.0, tag="three_rows",
    )
    msg = re.escape("model 'three_rows': diffusion returned shape (3, 2), expected (8, 2)")
    with pytest.raises(ConfigurationError, match=msg):
        integrate(model, constant_initial([0.0, 0.0]), n_particles=8, seed=0)


@pytest.mark.parametrize("n", [3, 8])
def test_constant_policy_actions_are_read_only(n):
    from pathmkv.measure import StoppedView

    policy = constant_policy([0.25, -0.5])
    xs = StoppedView(TimeGrid(1.0, 4), np.zeros((n, 5, 1)), 2)
    for t in (0.0, 0.5):
        u = policy.actions(t, xs, xs)
        assert u.shape == (n, 2) and np.all(u == [0.25, -0.5])
        with pytest.raises(ValueError):
            u[0, 0] = 1.0


@pytest.mark.parametrize(
    "drift, shape",
    [
        (lambda t, xs, mu, u, nu: np.ones((xs.n, 1)), (3, 1)),
        (lambda t, xs, mu, u, nu: np.ones(3), (3,)),
    ],
    ids=["one_column_on_d2", "flat"],
)
def test_a_drift_of_the_wrong_shape_is_refused(drift, shape):
    # an (N, 1) drift would broadcast over both coordinates; a flat one would
    # end in a numpy error inside the check the model gets when it is built
    msg = re.escape(f"model 'bad_drift': drift returned shape {shape}, expected (3, 2)")
    with pytest.raises(ConfigurationError, match=msg):
        ModelSpec(grid=TimeGrid(1.0, 4), A=SpectralOperator([0.0, 0.0]), drift=drift, lipschitz=1.0, tag="bad_drift")


def test_a_model_whose_generator_has_no_eigenvalue_is_refused():
    with pytest.raises(ConfigurationError, match="A has no eigenvalue"):
        ModelSpec(grid=TimeGrid(1.0, 4), A=SpectralOperator(np.zeros(0)))
    with pytest.raises(ConfigurationError, match="A has no eigenvalue"):
        make_frozen(TimeGrid(1.0, 4), d=0)


def test_controlled_linear_refuses_actions_wider_than_the_state():
    with pytest.raises(ConfigurationError, match="actions of width 2 exceed the state dimension 1"):
        integrate(
            make_controlled_linear(TimeGrid(1.0, 4)),
            constant_initial([0.0]),
            constant_policy([1.0, 1.0]),
            n_particles=4,
        )


def test_blowup_detected_with_context():
    grid = TimeGrid(1.0, 60)
    lam = 5e7

    def drift(t, xs, mu, u, nu):
        return lam * xs.values_now

    model = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        drift=drift,
        lipschitz=lam,
        tag="stiff",
    )
    with pytest.raises(IntegrationBlowupError) as exc, np.errstate(over="ignore"):
        integrate(model, constant_initial([1.0]), n_particles=4, seed=0)
    assert exc.value.step > 0
    assert exc.value.particle >= 0


def test_anticipative_model_rejected():
    grid = TimeGrid(1.0, 20)

    def drift(t, xs, mu, u, nu):
        # peeks at the raw array beyond the current node
        return xs._values[:, -1, :]

    with pytest.raises(ConfigurationError):
        ModelSpec(
            grid=grid,
            A=SpectralOperator([0.0]),
            drift=drift,
            lipschitz=1.0,
            tag="cheater",
        )


def test_a_model_is_frozen():
    # a model is checked once, when it is built, so no field may change after
    model = make_ou(TimeGrid(1.0, 20), a=-1.0, s0=0.5)
    with pytest.raises(FrozenInstanceError):
        model.drift = lambda t, xs, mu, u, nu: xs._values[:, -1, :]
    with pytest.raises(FrozenInstanceError):
        model.lipschitz = 0.0


def test_a_non_finite_coefficient_is_refused_as_non_finite():
    with pytest.raises(ConfigurationError, match="model 'ou': diffusion returned a non-finite value"):
        make_ou(TimeGrid(1.0, 20), s0=float("nan"))


def test_wrong_lipschitz_declaration_rejected():
    grid = TimeGrid(1.0, 20)
    model = make_meanfield_ou(grid, theta=3.0)
    with pytest.raises(ConfigurationError):
        replace(model, lipschitz=0.1)  # deliberately too small


def test_a_replaced_model_is_checked_afresh():
    # dataclasses.replace builds a new model, which is checked as it is
    # built: the check of the one it copies does not carry over to a drift
    # that reads the path past t
    base = make_ou(TimeGrid(1.0, 20), a=-1.0, s0=0.5)

    def peek(t, xs, mu, u, nu):
        return xs._values[:, -1, :]

    with pytest.raises(ConfigurationError, match="anticipative"):
        replace(base, drift=peek)


def test_ensemble_export(tmp_path):
    grid = TimeGrid(1.0, 10)
    model = make_ou(grid, a=-1.0, s0=0.5)
    ens = integrate(model, constant_initial([0.0]), n_particles=3, seed=1)
    out = tmp_path / "run"
    ens.export(str(out))
    assert sorted(os.listdir(out)) == [
        "manifest.json",
        "particle_00000.csv",
        "particle_00001.csv",
        "particle_00002.csv",
    ]
    import json

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 1
    assert manifest["model_tag"] == "ou"
    assert manifest["grid"] == {"T": 1.0, "steps": 10}


@pytest.mark.slow
def test_particle_convergence_in_n():
    # W2(empirical law at N, law at 4N) shrinks as N grows (8-seed average).
    from pathmkv.measure import wasserstein2

    grid = TimeGrid(1.0, 50)
    model = make_meanfield_ou(grid, theta=1.0, s0=0.3)
    init = gaussian_initial(0.0, 1.0)
    avg = []
    for n in (250, 1000, 4000):
        dists = []
        for seed in range(8):
            small = integrate(model, init, n_particles=n, seed=seed)
            big = integrate(model, init, n_particles=4 * n, seed=1000 + seed)
            dists.append(
                wasserstein2(small.law(), big.law(), mode="sliced", projections=128, seed=seed)
            )
        avg.append(np.mean(dists))
    assert avg[0] > avg[1] > avg[2]


# ---------------------------------------------------------------------------
# Node-major particle blocks: every node slice is contiguous, and storing the
# blocks node by node changes no value.


def _c_ordered(n, nodes, width):
    """A zeroed path-major (C-order) block in place of node_major's, for
    reference runs."""
    return np.zeros((n, nodes, width))


@pytest.fixture
def path_major(monkeypatch):
    """Run a callable with every paths, noise, controls and frozen-law block
    allocated path-major (C order), as before blocks were stored node-major."""
    import pathmkv.rng
    import pathmkv.sde

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(pathmkv.sde, "node_major", _c_ordered)
            m.setattr(pathmkv.rng, "node_major", _c_ordered)
            return fn()

    return run


def test_particle_blocks_are_node_major():
    from dataclasses import replace

    from pathmkv.control import constant_policy
    from pathmkv.models import make_controlled_linear
    from pathmkv.sde import brownian_block

    grid = TimeGrid(1.0, 20)
    model = make_controlled_linear(grid, s0=0.3, d=3)
    ens = integrate(model, gaussian_initial(), constant_policy([0.5]), n_particles=8, seed=1)
    noise = brownian_block(model, 8, 1)
    for j in (0, 7, grid.steps - 1):
        assert ens.values[:, j, :].flags.c_contiguous
        assert noise[:, j, :].flags.c_contiguous
        assert ens.controls[:, j, :].flags.c_contiguous
    assert ens.values[:, grid.steps, :].flags.c_contiguous
    assert not ens.values.flags.c_contiguous
    # the law handed to W2 stays path-major
    assert ens.law().atoms.flags.c_contiguous

    # Picard's frozen law, as the drift reads it
    base = make_meanfield_ou(grid, theta=1.0, s0=0.2)
    layouts = []

    def drift(t, xs, mu, u, nu):
        if mu is not xs:  # a frozen law, not the model check's own block
            layouts.append(mu.values_now.flags.c_contiguous)
        return base.drift(t, xs, mu, u, nu)

    model = replace(base, drift=drift)
    integrate_picard(model, two_point_initial(), n_particles=8, seed=2, window=0.5)
    assert layouts and all(layouts)


@pytest.mark.parametrize("d", [1, 3, 9])
@pytest.mark.parametrize("tag", ["meanfield_ou", "meanfield_growth", "ou"])
def test_node_major_paths_equal_path_major_paths(path_major, d, tag):
    from pathmkv.models import build_model
    from pathmkv.sde import InitialLaw, brownian_block

    grid = TimeGrid(1.0, 40)
    model = build_model(tag, grid, d=d)
    n, seed = 24, 3
    init = ramp_initial(scale=1.5)
    block = init.sample(seed, n, grid, d)
    noise = brownian_block(model, n, seed)
    ens = integrate(model, init, t0=0.25, n_particles=n, seed=seed, noise=noise)
    ref = path_major(
        lambda: integrate(
            model,
            InitialLaw.from_values(np.ascontiguousarray(block)),
            t0=0.25,
            n_particles=n,
            seed=seed,
            noise=None if noise is None else np.ascontiguousarray(noise),
        )
    )
    assert ref.values.flags.c_contiguous and not ens.values.flags.c_contiguous
    assert np.array_equal(ens.values, ref.values)
    assert ens.summary_moments() == ref.summary_moments()


@pytest.mark.parametrize("t0, t_end", [(0.0, None), (0.25, 0.75)])
@pytest.mark.parametrize("d", [1, 3, 9])
def test_node_major_controlled_run_equals_path_major_run(path_major, d, t0, t_end):
    from pathmkv.control import constant_policy, reward
    from pathmkv.models import make_controlled_linear

    grid = TimeGrid(1.0, 40)
    model = make_controlled_linear(grid, s0=0.4, d=d)
    u = np.linspace(-0.5, 0.5, d)
    policy = constant_policy(u)
    n, seed = 24, 5

    def run():
        return integrate(
            model, gaussian_initial(0.2, 1.0), policy, t0, n_particles=n, seed=seed, t_end=t_end
        )

    ens, ref = run(), path_major(run)
    assert ref.controls.flags.c_contiguous and not ens.controls.flags.c_contiguous
    noise = brownian_block(model, n, seed)
    assert np.array_equal(noise, path_major(lambda: brownian_block(model, n, seed)))
    assert np.array_equal(ens.values, ref.values)
    assert np.array_equal(ens.controls, ref.controls)
    assert reward(model, ens, t0) == reward(model, ref, t0)
    # the steps the run took hold the policy's actions, every other node zeros
    j0, j_end = grid.node(t0), grid.node(1.0 if t_end is None else t_end)
    assert np.all(ens.controls[:, j0:j_end] == u)
    assert not ens.controls[:, :j0].any() and not ens.controls[:, j_end:].any()


@pytest.mark.parametrize("d", [1, 3, 9])
def test_node_major_windowed_picard_equals_path_major_picard(path_major, d):
    grid = TimeGrid(1.0, 60)
    model = make_meanfield_growth(grid, theta=4.0, s0=0.2, d=d)
    init = gaussian_initial(0.5, 1.0)
    res = integrate_picard(model, init, n_particles=16, seed=7, window=0.25)
    ref = path_major(lambda: integrate_picard(model, init, n_particles=16, seed=7, window=0.25))
    assert ref.ensemble.values.flags.c_contiguous
    assert res.gaps == ref.gaps and res.iterations == ref.iterations
    assert np.array_equal(res.ensemble.values, ref.ensemble.values)


@pytest.mark.parametrize("dk", [1, 3])
@pytest.mark.parametrize("factor", [2, 8, 10, 100])
def test_refine_increments_is_layout_free(dk, factor):
    # 300 particles: more than one C-contiguous chunk of rows
    n, m_fine = 300, 400
    fine = brownian_increments(11, n, m_fine, dk, 1.0 / m_fine)
    # the C-ordered reduction of the drawn block, pairwise over 8 or more terms
    ref = np.ascontiguousarray(fine).reshape(n, m_fine // factor, factor, dk).sum(axis=2)
    [coarse] = refine_increments(11, n, m_fine, dk, 1.0 / m_fine, [factor])
    assert np.array_equal(coarse, ref)
    assert coarse[:, 0, :].flags.c_contiguous
    # one pass for several factors gives each factor's block of its own pass
    both = refine_increments(11, n, m_fine, dk, 1.0 / m_fine, [factor, 1])
    assert np.array_equal(both[0], ref)
    assert np.array_equal(both[1], fine)


def test_constant_initial_is_a_read_only_view_of_its_value():
    grid = TimeGrid(1.0, 10)
    block = constant_initial([1.0, -2.0]).sample(0, 5, grid, 2)
    assert np.array_equal(block, np.tile([1.0, -2.0], (5, grid.steps + 1, 1)))
    assert not block.flags.writeable
    with pytest.raises(ConfigurationError):
        constant_initial([1.0, -2.0]).sample(0, 5, grid, 3)


# Initial samples as read-only views, and the streamed whole-path passes.


def _constant_path_laws():
    from pathmkv.sde import two_point_mapped

    return {
        "gaussian": gaussian_initial(0.5, 0.2),
        "two_point": two_point_initial(-1, 2),  # integer ends broadcast as floats
        "mapped": two_point_mapped(-1.0, 2.0),
        "mapped_flipped": two_point_mapped(-1.0, 2.0, flipped=True),
    }


@pytest.mark.parametrize("kind", ["gaussian", "two_point", "mapped", "mapped_flipped"])
def test_constant_path_samplers_are_read_only_views(kind):
    from pathmkv import rng

    grid, n, d, seed = TimeGrid(1.0, 12), 9, 2, 5
    block = _constant_path_laws()[kind].sample(seed, n, grid, d)
    assert block.shape == (n, grid.steps + 1, d) and block.dtype == float
    assert not block.flags.writeable and block.strides[1] == 0
    with pytest.raises(ValueError):
        block[0, 0, 0] = 0.0
    if kind == "two_point":
        signs = np.where(np.arange(n) % 2 == 0, -1, 2)
    elif kind.startswith("mapped"):
        lo, hi = (2.0, -1.0) if kind == "mapped_flipped" else (-1.0, 2.0)
        signs = np.where(rng.uniforms(seed, rng.STREAM_INITIAL, n)[:, 0] < 0.5, lo, hi)
    if kind != "gaussian":  # test_rng pins the Gaussian draws
        assert np.array_equal(block, np.tile(signs[:, None, None], (1, grid.steps + 1, d)))


def test_fixed_initial_data_is_a_read_only_view_of_a_writable_block():
    from pathmkv.sde import InitialLaw

    grid = TimeGrid(1.0, 6)
    data = ramp_initial(2.0).sample(1, 4, grid, 3).copy()
    block = InitialLaw.from_values(data).sample(0, 4, grid, 3)
    assert not block.flags.writeable and np.shares_memory(block, data)
    assert data.flags.writeable
    with pytest.raises(ConfigurationError):
        InitialLaw.from_values(data).sample(0, 5, grid, 3)


@pytest.mark.parametrize("kind", ["gaussian", "two_point", "mapped", "mapped_flipped"])
@pytest.mark.parametrize("t0", [0.0, 0.5])
def test_runs_from_a_view_equal_runs_from_its_materialized_block(kind, t0):
    from pathmkv.sde import InitialLaw, _start

    grid, n, d, seed = TimeGrid(1.0, 20), 10, 2, 3
    model = make_ou(grid, a=-1.0, s0=0.5, d=d)
    init = _constant_path_laws()[kind]
    block = np.array(init.sample(seed, n, grid, d))
    j0, values, _ = _start(model, init, t0, n, seed)
    assert np.array_equal(values[:, : j0 + 1], block[:, : j0 + 1])
    ens = integrate(model, init, t0=t0, n_particles=n, seed=seed)
    ref = integrate(model, InitialLaw.from_values(block), t0=t0, n_particles=n, seed=seed)
    assert np.array_equal(ens.values, ref.values)


def _one_shot_gap_sq(a, b, j, start=0):
    return ((a[:, start : j + 1] - b[:, start : j + 1]) ** 2).sum(axis=2).max(axis=1)


@pytest.mark.parametrize("layout", ["node_major", "c"])
@pytest.mark.parametrize("d", [1, 3, 16])
def test_s2_distance_equals_the_one_shot_pass(monkeypatch, path_major, layout, d):
    import pathmkv.paths

    grid, n = TimeGrid(1.0, 30), 12
    monkeypatch.setattr(pathmkv.paths, "REDUCE_ELEMENTS", 4 * n * d)
    model = make_ou(grid, a=-1.0, s0=0.5, d=d)

    def pair():
        a = integrate(model, gaussian_initial(), n_particles=n, seed=2)
        b = integrate_yosida(model, 4.0, gaussian_initial(), n_particles=n, seed=2)
        return a, b

    a, b = pair() if layout == "node_major" else path_major(pair)
    assert a.values.flags.c_contiguous == (layout == "c")
    want = float(np.sqrt(_one_shot_gap_sq(a.values, b.values, grid.steps).mean()))
    assert s2_distance(a, b) == want > 0.0


@pytest.mark.parametrize("window", [None, 0.3])
def test_picard_gaps_equal_the_one_shot_pass(monkeypatch, window):
    import pathmkv.paths
    import pathmkv.sde

    grid, n, d = TimeGrid(1.0, 40), 16, 3
    monkeypatch.setattr(pathmkv.paths, "REDUCE_ELEMENTS", 6 * n * d)
    streamed = pathmkv.sde.sup_seminorm_sq_distance
    want = []

    def checked(a, b, j, start=0):
        got = streamed(a, b, j, start)
        ref = _one_shot_gap_sq(a, b, j, start)
        assert np.array_equal(got, ref)
        if a.shape[0] == n:  # the skeleton's Lipschitz spot check takes 3-particle blocks
            want.append(float(np.sqrt(ref.mean())))
        return got

    model = make_meanfield_ou(grid, s0=0.3, d=d)
    monkeypatch.setattr(pathmkv.sde, "sup_seminorm_sq_distance", checked)
    res = integrate_picard(model, gaussian_initial(), n_particles=n, seed=4, window=window)
    assert res.gaps == want and len(want) == res.iterations


@pytest.mark.parametrize(
    "make",
    [lambda g: make_meanfield_ou(g, theta=1.0, s0=0.0), make_frozen],
    ids=["meanfield_ou_s0_0", "frozen"],
)
def test_a_diffusion_free_run_draws_no_noise(make, monkeypatch):
    # the step kernel reads the noise only through the diffusion
    import pathmkv.rng

    model = make(TimeGrid(1.0, 20))
    init, n, seed = gaussian_initial(0.5, 0.2), 16, 11
    block = brownian_block(model, n, seed)
    explicit = integrate(model, init, None, 0.0, n, seed, noise=block)
    draws = []
    draw = pathmkv.rng.brownian_increments

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    ens = integrate(model, init, None, 0.0, n, seed)
    restart = flow_restart_check(model, init, None, 0.0, 0.5, n, seed)
    integrate_picard(model, init, None, 0.0, n, seed)
    assert draws == []
    assert np.array_equal(ens.values, explicit.values)
    assert restart["max_particle_gap"] == 0.0
