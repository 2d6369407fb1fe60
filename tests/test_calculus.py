import math

import numpy as np
import pytest

from pathmkv.calculus import (
    CylindricalFunctional,
    ItoProcessSpec,
    LiftedSample,
    const_diffusion_spec,
    const_drift_spec,
    linear_drift_diffusion_spec,
    consistency_check,
    drift_diffusion_spec,
    horizontal_derivative,
    ito_verify,
    linear_mean,
    mean_squared,
    mean_squared_double,
    measure_derivative_discrete,
    measure_derivative_field,
    quadratic_form,
    quadratic_form_dense,
    running_sup_sq,
    second_derivative,
    standard_zoo,
    time_linear_mean,
    time_quadratic_mean,
)
from pathmkv.errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    UnsupportedFunctionalError,
)
from pathmkv.hilbert import HilbertVec
from pathmkv.measure import EmpiricalPathMeasure, stopped_measure
from pathmkv.models import make_ou
from pathmkv.paths import TimeGrid
from pathmkv.sde import constant_initial, gaussian_initial


def random_measure(grid, d, n, seed):
    rng = np.random.default_rng(seed)
    return EmpiricalPathMeasure(grid, rng.normal(size=(n, grid.steps + 1, d)), None)


GRID = TimeGrid(1.0, 20)


def test_zoo_eval_nonanticipative_bitwise():
    mu = random_measure(GRID, 2, 6, 0)
    zoo = standard_zoo(2)
    for phi in zoo.values():
        for t in (0.0, 0.25, 0.5, 1.0):
            assert phi.eval(t, mu) == phi.eval(t, stopped_measure(mu, t))


def test_lifting_identity_bitwise_and_permutation_stability():
    mu = random_measure(GRID, 2, 5, 1)
    zoo = standard_zoo(2)
    for phi in zoo.values():
        sample = LiftedSample(mu, 2)
        assert sample.lifted_eval(phi, 0.4) == phi.eval(0.4, mu)
    perm = np.random.default_rng(2).permutation(5)
    mu_perm = EmpiricalPathMeasure(GRID, mu.atoms[perm], None)
    for phi in zoo.values():
        assert phi.eval(0.7, mu_perm) == pytest.approx(phi.eval(0.7, mu), abs=1e-12)


def test_horizontal_derivative_time_free_functional():
    mu = random_measure(GRID, 1, 4, 3)
    phi = linear_mean([1.0])
    assert horizontal_derivative(phi, 0.5, mu) == pytest.approx(0.0, abs=1e-12)


def test_horizontal_derivative_product_rule():
    mu = random_measure(GRID, 1, 5, 4)
    phi = time_linear_mean([1.0])
    base = linear_mean([1.0])
    t = 0.5
    got = horizontal_derivative(phi, t, mu, with_diagnostics=True)
    want = base.eval(t, stopped_measure(mu, t))
    assert got.value == pytest.approx(want, rel=1e-10)
    assert got.analytic == pytest.approx(want, rel=1e-12)


def test_horizontal_derivative_richardson_halving():
    mu = random_measure(GRID, 1, 5, 5)
    phi = time_quadratic_mean([1.0])
    t = 0.5
    errs = []
    for delta in (0.2, 0.1, 0.05):
        fd = horizontal_derivative(phi, t, mu, dt_fd=delta)
        errs.append(abs(fd - phi.dt(t, mu)))
    for a, b in zip(errs, errs[1:]):
        assert 0.4 <= b / a <= 0.6


def test_horizontal_derivative_at_horizon_uses_left_ladder():
    # smooth (linear-in-time) atoms so the left limit is well defined
    rng = np.random.default_rng(6)
    z = rng.normal(size=(5, 1))
    atoms = z[:, None, :] * GRID.times[None, :, None]
    mu = EmpiricalPathMeasure(GRID, atoms, None)
    phi = time_linear_mean([1.0])
    got = horizontal_derivative(phi, GRID.T, mu)
    # analytic limit: value of the linear mean at the horizon
    want = linear_mean([1.0]).eval(GRID.T, mu)
    assert got == pytest.approx(want, rel=1e-8)


def test_horizontal_derivative_detects_anticipative_functional():
    bad = CylindricalFunctional(
        tag="peek_ahead", eval_fn=lambda t, mu: float(mu.values_at(1.0).sum())
    )
    mu = random_measure(GRID, 1, 4, 7)
    with pytest.raises(ContractError):
        horizontal_derivative(bad, 0.3, mu)


def test_measure_derivative_linear_functional():
    mu = random_measure(GRID, 2, 6, 8)
    h = np.array([1.0, 0.0])
    phi = linear_mean(h)
    rng = np.random.default_rng(9)
    for _ in range(10):
        i = int(rng.integers(0, 6))
        hp = rng.normal(size=2)
        got = measure_derivative_discrete(phi, 0.5, mu, i, HilbertVec(hp), eps=1e-6)
        assert got == pytest.approx(float(h @ hp), abs=1e-5)


def test_measure_derivative_mean_squared_chain_rule():
    mu = random_measure(GRID, 2, 5, 10)
    h = np.array([1.0, 0.0])
    phi = mean_squared(h)
    t = 0.5
    m = float(mu.weights @ (mu.values_at(t) @ h))
    hp = np.array([0.3, -0.7])
    got = measure_derivative_discrete(phi, t, mu, 1, HilbertVec(hp), eps=1e-6)
    assert got == pytest.approx(2 * m * float(h @ hp), abs=1e-5)


def test_measure_derivative_constant_functional_is_zero():
    mu = random_measure(GRID, 1, 4, 11)
    phi = CylindricalFunctional(tag="const", eval_fn=lambda t, mu: 3.25)
    got = measure_derivative_discrete(phi, 0.2, mu, 0, HilbertVec([1.0]), eps=1e-5)
    assert got == 0.0


def test_measure_derivative_zero_weight_atom_rejected():
    g = TimeGrid(1.0, 4)
    atoms = np.zeros((2, 5, 1))
    mu = EmpiricalPathMeasure(g, atoms, np.array([1.0, 0.0]))
    phi = linear_mean([1.0])
    with pytest.raises(DomainError):
        measure_derivative_discrete(phi, 0.5, mu, 1, HilbertVec([1.0]), eps=1e-5)


def test_field_matches_analytic_within_eps_and_richardson_improves():
    mu = random_measure(GRID, 2, 6, 12)
    zoo = standard_zoo(2)
    t = 0.5
    eps = 1e-5
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        phi = zoo[tag]
        fd = measure_derivative_field(phi, t, mu, eps=eps)
        err = np.abs(fd - phi.dmu_field(t, mu)).max()
        assert err <= 1e-5
        rich = measure_derivative_field(phi, t, mu, eps=eps, richardson=True)
        err_r = np.abs(rich - phi.dmu_field(t, mu)).max()
        assert err_r <= err + 1e-15


def test_eps_sweep_v_curve():
    mu = random_measure(GRID, 2, 6, 13)
    zoo = standard_zoo(2)
    t = 0.5
    sweep = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-10, 1e-12]
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        phi = zoo[tag]
        errs = [
            np.abs(measure_derivative_field(phi, t, mu, eps=e) - phi.dmu_field(t, mu)).max()
            for e in sweep
        ]
        assert min(errs) < 1e-6
        if tag != "linear_mean":  # truncation side exists only with curvature
            k = int(np.argmin(errs))
            assert 0 < k < len(sweep) - 1
            assert errs[0] > errs[k] and errs[-1] > errs[k]


def test_derivative_nonanticipativity():
    mu = random_measure(GRID, 2, 5, 14)
    zoo = standard_zoo(2)
    t = 0.4
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        phi = zoo[tag]
        f_full = measure_derivative_field(phi, t, mu, eps=1e-6)
        f_stop = measure_derivative_field(phi, t, stopped_measure(mu, t), eps=1e-6)
        assert np.abs(f_full - f_stop).max() < 1e-9


def test_second_derivative_linear_is_zero_and_quadratic_recovers_q():
    mu = random_measure(GRID, 2, 5, 15)
    t = 0.5
    d2 = second_derivative(linear_mean([1.0, 0.0]), t, mu, 0, eps=1e-5)
    assert np.abs(d2.matrix).max() < 1e-4  # zero matrix up to O(eps) FD noise
    q = np.array([0.3, 0.45])
    d2q = second_derivative(quadratic_form(q), t, mu, 1, eps=1e-5)
    assert np.abs(d2q.matrix - 2 * np.diag(q)).max() < 1e-4
    assert np.array_equal(d2q.sym, 0.5 * (d2q.matrix + d2q.matrix.T))
    assert np.abs(d2q.sym - d2q.sym.T).max() == 0.0


def test_running_sup_sq_refuses_derivatives():
    mu = random_measure(GRID, 1, 4, 16)
    phi = running_sup_sq()
    assert phi.eval(0.5, mu) > 0
    with pytest.raises(UnsupportedFunctionalError):
        measure_derivative_discrete(phi, 0.5, mu, 0, HilbertVec([1.0]), eps=1e-5)
    with pytest.raises(UnsupportedFunctionalError):
        second_derivative(phi, 0.5, mu, 0)


def test_ito_linear_functional_constant_drift():
    # LHS = <c, h> (s - t) exactly; G = 0 so the residual is pure quadrature.
    phi = linear_mean([1.0])
    spec = const_drift_spec([0.7])
    rep = ito_verify(
        phi,
        GRID,
        gaussian_initial(0.0, 1.0),
        t=0.0,
        s=1.0,
        n_particles=256,
        seed=17,
        process=spec,
        d=1,
        dt_coeff=10.0,
    )
    assert rep.lhs == pytest.approx(0.7, rel=1e-10)
    assert abs(rep.residual) < 1e-10
    assert rep.passed


def test_ito_quadratic_form_brownian_second_moment():
    # d E<X,QX> = Tr(G G* Q) dt: trace term carries the whole growth.
    q = np.array([0.5])
    phi = quadratic_form(q)
    spec = const_diffusion_spec(0.5)
    rep = ito_verify(
        phi,
        TimeGrid(1.0, 500),
        constant_initial([0.0]),
        t=0.0,
        s=1.0,
        n_particles=4000,
        seed=18,
        process=spec,
        d=1,
    )
    assert rep.rhs == pytest.approx(0.25 * 0.5, rel=1e-9)  # s0^2 q (s - t)
    assert rep.passed


def test_ito_drift_diffusion_and_linear_drives():
    grid = TimeGrid(1.0, 400)
    init = gaussian_initial(0.0, 0.5)
    for drive in (drift_diffusion_spec([0.4], 0.3), linear_drift_diffusion_spec(1.0, 0.3)):
        for phi in (linear_mean([1.0]), quadratic_form([0.5])):
            rep = ito_verify(
                phi, grid, init, t=0.0, s=1.0, n_particles=1000, seed=25,
                process=drive, d=1,
            )
            assert rep.passed, (phi.tag, drive.tag, rep.residual, rep.stderr)


def test_ito_zero_process_both_sides_zero():
    phi = mean_squared([1.0])
    spec = ItoProcessSpec(tag="F=0,G=0")
    rep = ito_verify(
        phi,
        GRID,
        gaussian_initial(0.5, 1.0),
        t=0.0,
        s=1.0,
        n_particles=64,
        seed=19,
        process=spec,
        d=1,
    )
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_ito_mild_variant_with_a_star_term():
    # OU under the semigroup form: the A* term balances the mean decay.
    model = make_ou(TimeGrid(1.0, 500), a=-1.0, s0=0.5)
    phi = linear_mean([1.0])
    rep = ito_verify(
        phi,
        model.grid,
        constant_initial([2.0]),
        t=0.0,
        s=1.0,
        n_particles=2000,
        seed=20,
        model=model,
    )
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0 * (math.exp(-1.0) - 1.0), abs=0.05)


def test_ito_requires_analytic_derivatives():
    phi = mean_squared_double([1.0])
    with pytest.raises(UnsupportedFunctionalError):
        ito_verify(
            phi,
            GRID,
            constant_initial([0.0]),
            t=0.0,
            s=1.0,
            n_particles=16,
            seed=0,
            process=const_drift_spec([1.0]),
        )


def test_ito_rejects_ambiguous_drive():
    phi = linear_mean([1.0])
    with pytest.raises(ConfigurationError):
        ito_verify(
            phi, GRID, constant_initial([0.0]), t=0.0, s=1.0, n_particles=16, seed=0
        )


def test_consistency_two_forms_of_mean_squared():
    mu = random_measure(GRID, 1, 6, 21)
    inst = [(0.3, mu), (0.7, mu)]
    rep = consistency_check(mean_squared([1.0]), mean_squared_double([1.0]), inst)
    assert rep.ok
    assert rep.max_dmu_gap < 1e-6


def test_consistency_trivial_and_dense_vs_diag():
    mu = random_measure(GRID, 2, 5, 22)
    inst = [(0.5, mu)]
    phi = quadratic_form([0.3, 0.4])
    phi_same = quadratic_form([0.3, 0.4])
    assert consistency_check(phi, phi_same, inst).ok
    dense = quadratic_form_dense(np.diag([0.3, 0.4]))
    assert consistency_check(phi, dense, inst).ok


def test_consistency_rejects_different_functionals():
    mu = random_measure(GRID, 1, 4, 23)
    with pytest.raises(ContractError):
        consistency_check(linear_mean([1.0]), mean_squared([1.0]), [(0.5, mu)])


def test_lifted_sample_bump_machinery():
    mu = random_measure(GRID, 1, 4, 24)
    sample = LiftedSample(mu, 1)
    bumped = sample.bumped(0.5, HilbertVec([1.0]), scale=0.1)
    j = GRID.node(0.5)
    gap = bumped.measure.atoms[1] - mu.atoms[1]
    assert np.all(gap[:j] == 0.0)
    assert np.allclose(gap[j:], 0.1)


@pytest.mark.parametrize(
    "kwargs, match",
    [({"n_batches": 1}, "n_batches"), ({"n_batches": 0}, "n_batches"),
     ({"n_particles": 5, "n_batches": 8}, "n_particles")],
)
def test_ito_rejects_too_few_batches_or_particles(kwargs, match):
    args = {"n_particles": 16, "seed": 0, **kwargs}
    with pytest.raises(DomainError, match=match):
        ito_verify(
            linear_mean([1.0]), GRID, constant_initial([0.0]), t=0.0, s=1.0,
            process=const_drift_spec([1.0]), **args,
        )


def test_ito_sequence_checks_every_functional_before_simulating():
    phis = [linear_mean([1.0]), running_sup_sq()]
    with pytest.raises(UnsupportedFunctionalError, match="running_sup_sq"):
        ito_verify(
            phis, GRID, constant_initial([0.0]), t=0.0, s=1.0, n_particles=16, seed=0,
            process=const_drift_spec([1.0]),
        )


# ---------------------------------------------------------------------------
# Pinned reference: the per-batch Ito quadrature as it was before the single
# node pass, one fancy-indexed particle set at a time.  Every report of the
# library must match it byte for byte.


def _reference_rhs_quadrature(phi, grid, values, j0, j1, idx, f_arr, g_arr, a_eigs=None):
    from pathmkv.sde import StoppedView

    total = 0.0
    sub = values[idx]
    for j in range(j0, j1):
        tt = grid.time_at(j)
        law = StoppedView(grid, sub, j)
        x = sub[:, j, :]
        term = phi.dt(tt, law)
        dmu = None
        if a_eigs is not None:
            dmu = np.asarray(phi.dmu_fn(tt, law, x), dtype=float)
            term += float(((x * a_eigs) * dmu).sum(axis=1).mean())
        if f_arr[j] is not None:
            if dmu is None:
                dmu = np.asarray(phi.dmu_fn(tt, law, x), dtype=float)
            term += float((f_arr[j][idx] * dmu).sum(axis=1).mean())
        if g_arr[j] is not None:
            g_now = g_arr[j][idx]
            dxdmu = np.asarray(phi.dxdmu_fn(tt, law, x), dtype=float)
            if dxdmu.ndim == 2:
                dxdmu = np.broadcast_to(dxdmu, (x.shape[0],) + dxdmu.shape)
            ns = g_now.shape[1]
            diag = np.einsum("nkk->nk", dxdmu[:, :ns, :ns])
            term += 0.5 * float((g_now**2 * diag).sum(axis=1).mean())
        total += term * grid.dt
    return total


def _reference_ito_verify(phi, grid, init, t, s, n_particles, seed, process=None, model=None,
                          d=1, n_batches=8, dt_coeff=10.0):
    from pathmkv import rng
    from pathmkv.calculus import ItoReport, _precompute_coefficients, _process_model
    from pathmkv.sde import StoppedView, _exp_euler_steps, integrate

    if model is not None:
        grid = model.grid
    j0, j1 = grid.node(t), grid.node(s)
    if model is not None:
        ens = integrate(model, init, None, t0=t, n_particles=n_particles, seed=seed)
        values, controls, a_eigs, tag = ens.values, ens.controls, model.A.eigenvalues, f"mild:{model.tag}"
    else:
        model = _process_model(process, grid, d)
        values = np.empty((n_particles, grid.steps + 1, d))
        values[:, : j0 + 1] = init.sample(seed, n_particles, grid, d)[:, : j0 + 1]
        noise = rng.brownian_increments(seed, n_particles, grid.steps, d, grid.dt)
        _exp_euler_steps(model, values, values, noise, j0, j1, 1.0)
        values[:, j1 + 1 :, :] = values[:, j1 : j1 + 1, :]
        controls, a_eigs, tag = None, None, process.tag
    f_arr, g_arr = _precompute_coefficients(model, values, j0, j1, controls)
    all_idx = np.arange(n_particles)

    def lhs_rhs(idx):
        sub = values[idx]
        lhs = phi.eval(grid.time_at(j1), StoppedView(grid, sub, j1)) - phi.eval(
            grid.time_at(j0), StoppedView(grid, sub, j0)
        )
        rhs = _reference_rhs_quadrature(phi, grid, values, j0, j1, idx, f_arr, g_arr, a_eigs)
        return lhs, rhs

    lhs, rhs = lhs_rhs(all_idx)
    residual = lhs - rhs
    batch_res = []
    for b in range(n_batches):
        bl, br = lhs_rhs(all_idx[b::n_batches])
        batch_res.append(bl - br)
    stderr = float(np.std(batch_res, ddof=1) / np.sqrt(n_batches))
    passed = abs(residual) <= 3.0 * stderr + dt_coeff * grid.dt
    return ItoReport(phi.tag, tag, lhs, rhs, residual, stderr, passed, grid.dt)


ITO_DRIVES = [
    const_drift_spec([0.7]),
    const_diffusion_spec(0.5),
    drift_diffusion_spec([0.4], 0.3),
    linear_drift_diffusion_spec(1.0, 0.3),
]
ANALYTIC_ZOO = [phi for phi in standard_zoo(1).values() if phi.has_analytic and phi.differentiable]


@pytest.mark.parametrize("n_particles", [200, 1003])
@pytest.mark.parametrize("drive", ITO_DRIVES, ids=lambda drive: drive.tag)
def test_ito_single_pass_matches_pinned_per_batch_loop(drive, n_particles):
    grid = TimeGrid(1.0, 40)
    init = gaussian_initial(0.0, 0.5)
    common = dict(t=0.0, s=1.0, n_particles=n_particles, seed=31, process=drive, d=1)
    reports = ito_verify(ANALYTIC_ZOO, grid, init, **common)
    assert [rep.functional for rep in reports] == [phi.tag for phi in ANALYTIC_ZOO]
    for phi, rep in zip(ANALYTIC_ZOO, reports):
        ref = _reference_ito_verify(phi, grid, init, **common)
        assert rep.to_json() == ref.to_json()
        assert ito_verify(phi, grid, init, **common).to_json() == rep.to_json()


def test_ito_single_pass_matches_pinned_loop_on_the_mild_variant():
    model = make_ou(TimeGrid(1.0, 40), a=-1.0, s0=0.5)
    common = dict(t=0.0, s=1.0, n_particles=1003, seed=32, model=model)
    for phi in (linear_mean([1.0]), quadratic_form([0.5])):
        rep = ito_verify(phi, model.grid, constant_initial([2.0]), **common)
        ref = _reference_ito_verify(phi, model.grid, constant_initial([2.0]), **common)
        assert rep.to_json() == ref.to_json()
    # from an interior start, with a batch count that does not divide N
    common.update(t=0.25, s=0.75, n_batches=7)
    reports = ito_verify(ANALYTIC_ZOO, model.grid, constant_initial([2.0]), **common)
    for phi, rep in zip(ANALYTIC_ZOO, reports):
        ref = _reference_ito_verify(phi, model.grid, constant_initial([2.0]), **common)
        assert rep.to_json() == ref.to_json()
