import math

import numpy as np
import pytest

from pathmkv.calculus import (
    CylindricalFunctional,
    const_diffusion_spec,
    const_drift_spec,
    linear_drift_diffusion_spec,
    consistency_check,
    drift_diffusion_spec,
    horizontal_derivative,
    ito_process,
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
    ContractError,
    DomainError,
    UnsupportedFunctionalError,
)
from pathmkv.control import constant_policy
from pathmkv.hjb import hamiltonian_from_model, hjb_residual
from pathmkv.measure import EmpiricalPathMeasure, StoppedView, stopped_measure
from pathmkv.models import make_controlled_linear, make_ou
from pathmkv.paths import TimeGrid
from pathmkv.sde import InitialLaw, constant_initial, draw_scope, gaussian_initial


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
    got = horizontal_derivative(phi, t, mu)
    want = base.eval(t, stopped_measure(mu, t))
    assert got == pytest.approx(want, rel=1e-10)
    assert phi.dt(t, mu) == pytest.approx(want, rel=1e-12)


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
        got = measure_derivative_discrete(phi, 0.5, mu, i, hp, eps=1e-6)
        assert got == pytest.approx(float(h @ hp), abs=1e-5)


def test_measure_derivative_mean_squared_chain_rule():
    mu = random_measure(GRID, 2, 5, 10)
    h = np.array([1.0, 0.0])
    phi = mean_squared(h)
    t = 0.5
    m = float(mu.weights @ (mu.values_at(t) @ h))
    hp = np.array([0.3, -0.7])
    got = measure_derivative_discrete(phi, t, mu, 1, hp, eps=1e-6)
    assert got == pytest.approx(2 * m * float(h @ hp), abs=1e-5)


def test_measure_derivative_constant_functional_is_zero():
    mu = random_measure(GRID, 1, 4, 11)
    phi = CylindricalFunctional(tag="const", eval_fn=lambda t, mu: 3.25)
    got = measure_derivative_discrete(phi, 0.2, mu, 0, [1.0], eps=1e-5)
    assert got == 0.0


def test_measure_derivative_zero_weight_atom_rejected():
    g = TimeGrid(1.0, 4)
    atoms = np.zeros((2, 5, 1))
    mu = EmpiricalPathMeasure(g, atoms, np.array([1.0, 0.0]))
    phi = linear_mean([1.0])
    with pytest.raises(DomainError):
        measure_derivative_discrete(phi, 0.5, mu, 1, [1.0], eps=1e-5)


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
        measure_derivative_discrete(phi, 0.5, mu, 0, [1.0], eps=1e-5)
    with pytest.raises(UnsupportedFunctionalError):
        second_derivative(phi, 0.5, mu, 0)


def test_ito_linear_functional_constant_drift():
    # LHS = <c, h> (s - t) exactly; G = 0 so the residual is pure quadrature.
    phi = linear_mean([1.0])
    spec = const_drift_spec(GRID, [0.7])
    rep = ito_verify(
        phi,
        spec,
        gaussian_initial(0.0, 1.0),
        t=0.0,
        s=1.0,
        n_particles=256,
        seed=17,
        dt_coeff=10.0,
    )
    assert rep.lhs == pytest.approx(0.7, rel=1e-10)
    assert abs(rep.residual) < 1e-10
    assert rep.passed


def test_ito_quadratic_form_brownian_second_moment():
    # d E<X,QX> = Tr(G G* Q) dt: trace term carries the whole growth.
    q = np.array([0.5])
    phi = quadratic_form(q)
    spec = const_diffusion_spec(TimeGrid(1.0, 500), 0.5)
    rep = ito_verify(
        phi,
        spec,
        constant_initial([0.0]),
        t=0.0,
        s=1.0,
        n_particles=4000,
        seed=18,
    )
    assert rep.rhs == pytest.approx(0.25 * 0.5, rel=1e-9)  # s0^2 q (s - t)
    assert rep.passed


def test_ito_drift_diffusion_and_linear_drives():
    grid = TimeGrid(1.0, 400)
    init = gaussian_initial(0.0, 0.5)
    for drive in (drift_diffusion_spec(grid, [0.4], 0.3), linear_drift_diffusion_spec(grid, 1.0, 0.3)):
        for phi in (linear_mean([1.0]), quadratic_form([0.5])):
            rep = ito_verify(phi, drive, init, t=0.0, s=1.0, n_particles=1000, seed=25)
            assert rep.passed, (phi.tag, drive.tag, rep.residual, rep.stderr)


def test_ito_zero_process_both_sides_zero():
    phi = mean_squared([1.0])
    spec = ito_process(GRID, tag="F=0,G=0")
    rep = ito_verify(
        phi,
        spec,
        gaussian_initial(0.5, 1.0),
        t=0.0,
        s=1.0,
        n_particles=64,
        seed=19,
    )
    assert rep.lhs == 0.0
    assert rep.rhs == 0.0


def test_ito_mild_variant_with_a_star_term():
    # OU under the semigroup form: the A* term balances the mean decay.
    model = make_ou(TimeGrid(1.0, 500), a=-1.0, s0=0.5)
    phi = linear_mean([1.0])
    rep = ito_verify(
        phi,
        model,
        constant_initial([2.0]),
        t=0.0,
        s=1.0,
        n_particles=2000,
        seed=20,
    )
    assert rep.passed
    assert rep.lhs == pytest.approx(2.0 * (math.exp(-1.0) - 1.0), abs=0.05)


def test_ito_requires_analytic_derivatives():
    phi = mean_squared_double([1.0])
    with pytest.raises(UnsupportedFunctionalError):
        ito_verify(
            phi,
            const_drift_spec(GRID, [1.0]),
            constant_initial([0.0]),
            t=0.0,
            s=1.0,
            n_particles=16,
            seed=0,
        )


def test_ito_rejects_ambiguous_drive():
    # the model is the one drive: a second process, or a grid or dimension
    # beside the model's own, is not an argument
    phi = linear_mean([1.0])
    model = make_ou(GRID, a=-1.0, s0=0.5)
    extras = [{"process": const_drift_spec(GRID, [1.0])}, {"grid": TimeGrid(2.0, 7)}, {"d": 5}]
    for extra in extras:
        with pytest.raises(TypeError, match=next(iter(extra))):
            ito_verify(
                phi, model, constant_initial([0.0]), t=0.0, s=1.0, n_particles=16, seed=0, **extra
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


def _closed_form_fields(tag, t, mu):
    """(dt, d_mu field, d_x d_mu field) of the d = 2 members below at the node
    of t, written out from mu's values x and weights w."""
    x, w = mu.values_at(t), mu.weights
    k, h, q, Q = x.shape[0], np.array(H2), np.array([0.25, 0.5]), np.array(Q2)
    zero2 = np.zeros((k, 2, 2))
    if tag == "linear_mean":
        return 0.0, np.broadcast_to(h, x.shape), zero2
    if tag == "mean_squared":
        return 0.0, np.broadcast_to(2.0 * (w @ (x @ h)) * h, x.shape), zero2
    if tag == "quadratic_form":
        return 0.0, 2.0 * x * q, np.broadcast_to(2.0 * np.diag(q), (k, 2, 2))
    if tag == "quadratic_form_dense":
        return 0.0, x @ (Q + Q.T), np.broadcast_to(Q + Q.T, (k, 2, 2))
    if tag == "time_linear_mean":
        return float(w @ (x @ h)), t * np.broadcast_to(h, x.shape), zero2
    assert tag == "time_quadratic_mean"
    return 2.0 * t * float(w @ (x @ h)), t**2 * np.broadcast_to(h, x.shape), zero2


def test_single_node_fields_match_their_closed_forms_bit_for_bit():
    grid = TimeGrid(1.0, 20)
    rng = np.random.default_rng(41)
    weighted = EmpiricalPathMeasure(grid, rng.normal(size=(7, 21, 2)), rng.dirichlet(np.ones(7)))
    uniform = StoppedView(grid, rng.normal(size=(9, 21, 2)), 12)
    for phi in ANALYTIC_ZOO_2:
        # on and off the grid nodes, past the uniform view's node 12, and at
        # a t where glibc's pow(t, 2) and t * t round differently
        for t in (0.0, 0.35, 0.37, 0.4753220153197895, 0.6, 0.85, 1.0):
            for mu in (weighted, uniform):
                want = _closed_form_fields(phi.tag, t, mu)
                got = (phi.dt(t, mu), phi.dmu_field(t, mu), phi.dxdmu_field(t, mu))
                assert got[0] == want[0] and type(got[0]) is float
                for g, w in zip(got[1:], want[1:]):
                    assert g.shape == w.shape and g.tobytes() == w.tobytes(), (phi.tag, t)


@pytest.mark.parametrize(
    "kwargs, match",
    [({"n_batches": 1}, "n_batches"), ({"n_batches": 0}, "n_batches"),
     ({"n_particles": 5, "n_batches": 8}, "n_particles")],
)
def test_ito_rejects_too_few_batches_or_particles(kwargs, match):
    args = {"n_particles": 16, "seed": 0, **kwargs}
    with pytest.raises(DomainError, match=match):
        ito_verify(
            linear_mean([1.0]), const_drift_spec(GRID, [1.0]), constant_initial([0.0]),
            t=0.0, s=1.0, **args,
        )


def test_ito_sequence_checks_every_functional_before_simulating():
    phis = [linear_mean([1.0]), running_sup_sq()]
    with pytest.raises(UnsupportedFunctionalError, match="running_sup_sq"):
        ito_verify(
            phis, const_drift_spec(GRID, [1.0]), constant_initial([0.0]), t=0.0, s=1.0,
            n_particles=16, seed=0,
        )


# every entry point that reads a functional's derivative fields, called on
# (phi, mu, model)
FIELD_READERS = {
    "dt": lambda phi, mu, model: phi.dt(0.5, mu),
    "dmu_field": lambda phi, mu, model: phi.dmu_field(0.5, mu),
    "dxdmu_field": lambda phi, mu, model: phi.dxdmu_field(0.5, mu),
    "ito_verify": lambda phi, mu, model: ito_verify(
        phi, model, constant_initial([0.0]), t=0.0, s=1.0, n_particles=16, seed=0
    ),
    "hjb_residual": lambda phi, mu, model: hjb_residual(phi, model, 0.5, mu),
    "hamiltonian_from_model": lambda phi, mu, model: hamiltonian_from_model(model, phi, 0.5, mu),
}


@pytest.mark.parametrize("tag", ["mean_squared_double", "running_sup_sq", "bare"])
@pytest.mark.parametrize("entry", list(FIELD_READERS))
def test_every_field_reader_refuses_a_functional_without_fields(entry, tag):
    grid = TimeGrid(1.0, 4)
    mu = EmpiricalPathMeasure(grid, np.random.default_rng(0).normal(size=(3, 5, 1)), None)
    zoo = {**standard_zoo(1), "bare": CylindricalFunctional(tag="bare", eval_fn=lambda t, mu: 0.0)}
    model = make_controlled_linear(grid, c=1.0, s0=0.3)
    with pytest.raises(UnsupportedFunctionalError, match=f"functional '{tag}' has no analytic derivative fields"):
        FIELD_READERS[entry](zoo[tag], mu, model)


def test_ito_under_a_constant_policy_equals_the_same_drift_written_into_the_model():
    # c * u = 0.7 under the policy is the drift F = 0.7 of the plain Ito
    # process; both runs start from one sample on one seed
    grid = TimeGrid(1.0, 200)
    init = InitialLaw.from_values(gaussian_initial(0.2, 0.5).sample(3, 800, grid, 1))
    phis = [phi for phi in standard_zoo(1).values() if phi.has_analytic]
    args = dict(t=0.0, s=1.0, n_particles=800, seed=11)
    controlled = ito_verify(
        phis, make_controlled_linear(grid, c=1.0, s0=0.3), init, policy=constant_policy([0.7]), **args
    )
    written = ito_verify(phis, drift_diffusion_spec(grid, [0.7], 0.3), init, **args)
    assert len(controlled) == 5
    for a, b in zip(controlled, written):
        assert a.model != b.model
        assert (a.functional, a.lhs, a.rhs, a.residual, a.stderr, a.passed) == (
            b.functional, b.lhs, b.rhs, b.residual, b.stderr, b.passed
        )


# ---------------------------------------------------------------------------
# Pinned reference: the per-batch Ito quadrature as it was before the single
# node pass and the node blocks, one fancy-indexed particle set and one node at
# a time, with per-node drift and diffusion.  Every report of the library must
# match it byte for byte.


def _reference_coefficients(model, values, j0, j1, controls=None):
    from pathmkv.sde import _recorded_args

    f_arr = {}
    g_arr = {}
    for j in range(j0, j1):
        args = _recorded_args(model.grid, values, controls, j)
        f_arr[j] = model.drift_at(*args) if model.drift is not None else None
        g_arr[j] = model.diffusion_at(*args) if model.diffusion is not None else None
    return f_arr, g_arr


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
            dmu = phi.dmu_field(tt, law)
            term += float(((x * a_eigs) * dmu).sum(axis=1).mean())
        if f_arr[j] is not None:
            if dmu is None:
                dmu = phi.dmu_field(tt, law)
            term += float((f_arr[j][idx] * dmu).sum(axis=1).mean())
        if g_arr[j] is not None:
            g_now = g_arr[j][idx]
            dxdmu = phi.dxdmu_field(tt, law)
            ns = g_now.shape[1]
            diag = np.einsum("nkk->nk", dxdmu[:, :ns, :ns])
            term += 0.5 * float((g_now**2 * diag).sum(axis=1).mean())
        total += term * grid.dt
    return total


def _reference_ito_verify(phi, model, init, t, s, n_particles, seed, n_batches=8, dt_coeff=10.0):
    from pathmkv import rng
    from pathmkv.calculus import ItoReport
    from pathmkv.sde import StoppedView, _exp_euler_steps, integrate

    grid, d = model.grid, model.A.dim
    j0, j1 = grid.node(t), grid.node(s)
    if np.any(model.A.eigenvalues):
        ens = integrate(model, init, None, t0=t, n_particles=n_particles, seed=seed)
        values, controls, a_eigs, tag = ens.values, ens.controls, model.A.eigenvalues, f"mild:{model.tag}"
    else:
        values = np.empty((n_particles, grid.steps + 1, d))
        values[:, : j0 + 1] = init.sample(seed, n_particles, grid, d)[:, : j0 + 1]
        noise = rng.brownian_increments(seed, n_particles, grid.steps, d, grid.dt)
        _exp_euler_steps(model, values, values, noise, j0, j1)
        values[:, j1 + 1 :, :] = values[:, j1 : j1 + 1, :]
        controls, a_eigs, tag = None, None, model.tag
    f_arr, g_arr = _reference_coefficients(model, values, j0, j1, controls)
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
    return ItoReport(phi.tag, tag, lhs, rhs, residual, stderr, passed)


GRID_40 = TimeGrid(1.0, 40)
ITO_DRIVES = [
    const_drift_spec(GRID_40, [0.7]),
    const_diffusion_spec(GRID_40, 0.5),
    drift_diffusion_spec(GRID_40, [0.4], 0.3),
    linear_drift_diffusion_spec(GRID_40, 1.0, 0.3),
]
ANALYTIC_ZOO = [phi for phi in standard_zoo(1).values() if phi.has_analytic and phi.differentiable]
# d = 2: every analytic member with h off the axes, so both coordinates count
H2 = [0.6, 0.8]
Q2 = [[0.3, 0.1], [-0.2, 0.5]]
ANALYTIC_ZOO_2 = [
    linear_mean(H2), mean_squared(H2), quadratic_form([0.25, 0.5]),
    quadratic_form_dense(Q2), time_linear_mean(H2), time_quadratic_mean(H2),
]
# (t, s, drive): the four drives on the 40-step grid from 0 to 1; then a node
# range of several blocks that is not a multiple of the block length, an
# interior start one node past a block boundary, and d = 2
ITO_CASES = [pytest.param(0.0, 1.0, drive, id=drive.tag) for drive in ITO_DRIVES] + [
    pytest.param(0.0, 1.0, drift_diffusion_spec(TimeGrid(1.0, 301), [0.4], 0.3), id="M=301"),
    pytest.param(0.225, 0.95, ITO_DRIVES[3], id="t=0.225,s=0.95"),
    pytest.param(0.0, 1.0, const_drift_spec(GRID_40, [0.7, -0.2]), id="d=2,F=const"),
    pytest.param(
        0.0, 1.0, ito_process(GRID_40, G=lambda t, x: np.array([0.5, 0.0]), tag="F=0,G=[0.5,0]", d=2),
        id="d=2,G=[0.5,0]",
    ),
    pytest.param(0.0, 1.0, drift_diffusion_spec(GRID_40, [0.7, -0.2], 0.3), id="d=2,F=const,G=0.3"),
]


@pytest.mark.parametrize("n_particles", [200, 1003])
@pytest.mark.parametrize("t, s, drive", ITO_CASES)
def test_ito_single_pass_matches_pinned_per_batch_loop(t, s, drive, n_particles):
    init = gaussian_initial(0.0, 0.5)
    zoo = ANALYTIC_ZOO if drive.A.dim == 1 else ANALYTIC_ZOO_2
    common = dict(t=t, s=s, n_particles=n_particles, seed=31)
    reports = ito_verify(zoo, drive, init, **common)
    assert [rep.functional for rep in reports] == [phi.tag for phi in zoo]
    for phi, rep in zip(zoo, reports):
        ref = _reference_ito_verify(phi, drive, init, **common)
        assert repr(rep) == repr(ref)
        assert repr(ito_verify(phi, drive, init, **common)) == repr(rep)


def test_ito_single_pass_matches_pinned_loop_on_the_mild_variant():
    model = make_ou(GRID_40, a=-1.0, s0=0.5)
    common = dict(t=0.0, s=1.0, n_particles=1003, seed=32)
    for phi in (linear_mean([1.0]), quadratic_form([0.5])):
        rep = ito_verify(phi, model, constant_initial([2.0]), **common)
        ref = _reference_ito_verify(phi, model, constant_initial([2.0]), **common)
        assert repr(rep) == repr(ref)
    # interior starts, with a batch count that does not divide N: t = 0.25,
    # then one node past a block boundary; then a 301-step grid, whose node
    # range spans several blocks and is not a multiple of the block length,
    # from 0 and from node 73 = 9 * 8 + 1
    cases = [(40, 0.25, 0.75), (40, 0.225, 0.75), (301, 0.0, 1.0), (301, 73 / 301, 0.75)]
    for steps, t, s in cases:
        model = make_ou(TimeGrid(1.0, steps), a=-1.0, s0=0.5)
        common.update(t=t, s=s, n_batches=7)
        reports = ito_verify(ANALYTIC_ZOO, model, constant_initial([2.0]), **common)
        for phi, rep in zip(ANALYTIC_ZOO, reports):
            ref = _reference_ito_verify(phi, model, constant_initial([2.0]), **common)
            assert repr(rep) == repr(ref), (steps, t, phi.tag)


@pytest.mark.parametrize(
    "steps, t, s", [(40, 0.0, 1.0), (40, 0.225, 0.75), (301, 73 / 301, 0.75)]
)
def test_ito_single_pass_matches_pinned_loop_on_the_mild_variant_in_d2(steps, t, s):
    # the generator term on two modes of different rates, with a row diffusion
    from pathmkv.hilbert import SpectralOperator
    from pathmkv.models import _constant_diffusion
    from pathmkv.sde import ModelSpec

    model = ModelSpec(
        grid=TimeGrid(1.0, steps), A=SpectralOperator([-1.0, -0.4]),
        diffusion=_constant_diffusion(0.5, 2), lipschitz=0.5, tag="ou2",
    )
    common = dict(t=t, s=s, n_particles=1003, seed=34, n_batches=7)
    init = gaussian_initial(0.5, 1.0)
    reports = ito_verify(ANALYTIC_ZOO_2, model, init, **common)
    for phi, rep in zip(ANALYTIC_ZOO_2, reports):
        ref = _reference_ito_verify(phi, model, init, **common)
        assert repr(rep) == repr(ref), (steps, t, phi.tag)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_node_means_are_the_per_node_dot_products_of_eval(d):
    # the full set and a strided batch, as the Ito quadrature reads them
    from pathmkv.calculus import NodeRun, _node_means

    grid = TimeGrid(1.0, 40)
    rng = np.random.default_rng(d)
    values = rng.normal(size=(41, 1003, d)).transpose(1, 0, 2)
    h = rng.normal(size=d)
    now = np.ascontiguousarray(values[:, 8:24].transpose(1, 0, 2))
    for r in (slice(None), slice(3, None, 7)):
        run = NodeRun(StoppedView(grid, values[r], 23), np.arange(8, 24) * grid.dt, now[:, r])
        want = np.array([run.weights @ (x @ h) for x in run.now])
        assert _node_means(run, h).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", list(range(1, 18)) + [4000])
def test_row_means_is_the_float_of_ndarray_mean(n):
    # N = 1..17 crosses numpy's unrolled 8-wide blocks; 4000 its pairwise split
    from pathmkv.calculus import _row_means

    rng = np.random.default_rng(n)
    for d in (1, 2, 3):
        a = rng.normal(size=(5, n, d))
        want = a.sum(axis=-1).mean(axis=-1)
        assert _row_means(a).tobytes() == want.tobytes()
        assert _row_means(a[1:2]).tobytes() == want[1:2].tobytes()


def test_ito_verify_at_suite_size_peaks_below_128_mb():
    # The suite's Ito call at N = 4000 on a 1000-step grid holds the paths
    # and the noise (32 MB each) and only one block of per-node drift and
    # diffusion at a time; one entry per node for both would add 64 MB.
    import tracemalloc

    phis = [linear_mean([1.0]), mean_squared([1.0]), quadratic_form([0.5])]
    drive = drift_diffusion_spec(TimeGrid(1.0, 1000), [0.4], 0.3)
    tracemalloc.start()
    try:
        ito_verify(
            phis, drive, gaussian_initial(0.0, 0.5), t=0.0, s=1.0, n_particles=4000, seed=3,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20, peak / 2**20


def test_ito_verify_on_a_shared_block_matches_its_own_draw(monkeypatch):
    # the ito stage runs the four drives and the A*-variant in one draw
    # scope; each must report what it reports when it draws the block itself
    import pathmkv.rng

    model = make_ou(GRID_40, a=-1.0, s0=0.5)
    runs = [(drive, gaussian_initial(0.0, 0.5)) for drive in ITO_DRIVES]
    runs.append((model, constant_initial([2.0])))
    common = dict(t=0.0, s=1.0, n_particles=203, seed=33)
    own = [ito_verify(ANALYTIC_ZOO, drive, init, **common) for drive, init in runs]
    draws = []
    draw = pathmkv.rng.brownian_increments

    def counted(*args):
        draws.append(args)
        return draw(*args)

    monkeypatch.setattr(pathmkv.rng, "brownian_increments", counted)
    with draw_scope():
        shared = [ito_verify(ANALYTIC_ZOO, drive, init, **common) for drive, init in runs]
    for (drive, _), a, b in zip(runs, shared, own):
        assert repr(a) == repr(b), drive.tag
    assert draws == [(33, 203, 40, 1, GRID_40.dt)]


def test_both_ito_routes_run_one_integrate_from_t_to_s(monkeypatch):
    # a plain Ito process (A = 0) and a mild model take the same route; only
    # the mild one carries the generator term and the "mild:" prefix
    import pathmkv.calculus as calculus

    runs = []
    real = calculus.integrate

    def spy(model, init, policy=None, **kwargs):
        runs.append((model.tag, kwargs["t0"], kwargs["t_end"]))
        return real(model, init, policy, **kwargs)

    monkeypatch.setattr(calculus, "integrate", spy)
    model = make_ou(GRID_40, a=-1.0, s0=0.5)
    common = dict(t=0.25, s=0.75, n_particles=16, seed=3)
    plain = ito_verify(linear_mean([1.0]), ITO_DRIVES[2], constant_initial([0.0]), **common)
    rep = ito_verify(linear_mean([1.0]), model, constant_initial([0.0]), **common)
    assert runs == [(ITO_DRIVES[2].tag, 0.25, 0.75), ("ou", 0.25, 0.75)]
    assert plain.model == ITO_DRIVES[2].tag
    assert rep.model == "mild:ou"
