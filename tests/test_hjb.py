import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from pathmkv.calculus import CylindricalFunctional, linear_mean
from pathmkv.control import BoxActionSet, FiniteActionSet
from pathmkv.errors import (
    CapacityError,
    ConfigurationError,
    ContractError,
    DomainError,
    UnsupportedFunctionalError,
)
from pathmkv.hilbert import SpectralOperator
from pathmkv.hjb import (
    HamiltonianIntegrand,
    hamiltonian_from_model,
    hamiltonian_sup_finite,
    hamiltonian_sup_randomized,
    hjb_residual,
    investment_hamiltonian_closed_form,
)
from pathmkv.measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    measure_from_paths,
    stopped_measure,
    wasserstein2_controls,
)
from pathmkv.models import make_controlled_linear
from pathmkv.paths import TimeGrid, constant_path
from pathmkv.sde import InitialLaw, ModelSpec, constant_initial, integrate
from pathmkv.control import reward


GRID = TimeGrid(1.0, 10)


def two_sign_measure():
    return measure_from_paths([constant_path(GRID, [1.0]), constant_path(GRID, [-1.0])])


def terminal_linear_integrand():
    return HamiltonianIntegrand(
        lambda xs, u, nu: xs.values_now[:, 0] * u[:, 0], tag="<x_T,e1>u"
    )


def table_integrand(table, actions):
    """F(x_i, u) = table[i, l] for u the l-th point of the action set."""

    def F_fn(xs, u, nu):
        l = np.argmin(np.abs(actions.points[None, :, 0] - u[:, :1]), axis=1)
        return table[np.arange(xs.n_atoms), l]

    return HamiltonianIntegrand(F_fn, tag="table")


def test_single_atom_all_forms_are_max():
    mu = measure_from_paths([constant_path(GRID, [2.0])])
    F = terminal_linear_integrand()
    actions = FiniteActionSet([[-1.0], [0.5], [1.0]])
    for form in ("esssup", "maps"):
        assert hamiltonian_sup_finite(F, mu, actions, form=form) == 2.0


def test_two_atom_per_atom_choice_beats_constant_control():
    mu = two_sign_measure()
    F = terminal_linear_integrand()
    actions = FiniteActionSet([[-1.0], [1.0]])
    val_ess = hamiltonian_sup_finite(F, mu, actions, form="esssup")
    val_maps = hamiltonian_sup_finite(F, mu, actions, form="maps")
    assert val_ess == 1.0
    assert val_maps == 1.0
    # per-atom signs differ; a single constant control only reaches 0
    const_vals = [float(mu.weights @ F(mu, np.full((2, 1), u))) for u in (-1.0, 1.0)]
    assert max(const_vals) == 0.0


def test_constant_integrand_returns_constant():
    mu = two_sign_measure()
    F = HamiltonianIntegrand(lambda xs, u, nu: np.full(xs.n_atoms, 3.25), tag="const")
    actions = FiniteActionSet([[0.0], [1.0]])
    for form in ("esssup", "maps"):
        assert hamiltonian_sup_finite(F, mu, actions, form=form) == 3.25


def test_three_forms_exactly_equal_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        q = int(rng.integers(1, 6))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        atoms = rng.normal(size=(k, GRID.steps + 1, 2))
        mu = EmpiricalPathMeasure(GRID, atoms, w)
        actions = FiniteActionSet(rng.normal(size=(q, 1)))
        F = table_integrand(rng.normal(size=(k, q)), actions)
        vals = [
            hamiltonian_sup_finite(F, mu, actions, form=f)
            for f in ("esssup", "maps")
        ]
        assert vals[0] == vals[1]


def test_capacity_error_suggests_esssup():
    mu = EmpiricalPathMeasure(GRID, np.random.default_rng(1).normal(size=(8, 11, 1)), None)
    actions = FiniteActionSet(np.arange(12.0)[:, None])
    F = terminal_linear_integrand()
    with pytest.raises(CapacityError):
        hamiltonian_sup_finite(F, mu, actions, form="maps")
    # esssup is immune to the cap
    hamiltonian_sup_finite(F, mu, actions, form="esssup")


def test_nu_dependent_refused_by_deterministic_forms():
    F = HamiltonianIntegrand(lambda xs, u, nu: np.zeros(xs.n_atoms), nu_dependent=True)
    with pytest.raises(ConfigurationError):
        hamiltonian_sup_finite(F, two_sign_measure(), FiniteActionSet([[0.0]]))


def test_randomized_equals_finite_for_nu_free():
    rng = np.random.default_rng(2)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        mu = EmpiricalPathMeasure(GRID, rng.normal(size=(k, 11, 1)), w)
        actions = FiniteActionSet(rng.normal(size=(q, 1)))
        F = table_integrand(rng.normal(size=(k, q)), actions)
        det = hamiltonian_sup_finite(F, mu, actions, form="maps")
        rand_val = hamiltonian_sup_randomized(F, mu, actions)
        assert rand_val >= det
        assert rand_val == det


def test_randomized_strictly_beats_deterministic_on_w2_penalty():
    # F = -W2(nu, Unif(U)): only the uniform randomization reaches 0.
    mu = measure_from_paths([constant_path(GRID, [0.0])])
    actions = FiniteActionSet([[0.0], [0.5], [1.0]])
    uniform = EmpiricalControlMeasure(actions.points)

    def F_fn(xs, u, nu):
        if nu is None:
            nu = EmpiricalControlMeasure(u)
        return np.full(xs.n_atoms, -wasserstein2_controls(nu, uniform))

    F = HamiltonianIntegrand(F_fn, nu_dependent=True, tag="-W2(nu,unif)")
    rand_val = hamiltonian_sup_randomized(F, mu, actions)
    det_best = max(F(mu, np.array([[u]]))[0] for u in (0.0, 0.5, 1.0))
    assert rand_val == pytest.approx(0.0, abs=1e-12)
    assert det_best < -0.1
    assert rand_val > det_best


def test_randomized_single_atom_singleton_grid_reduces_to_max():
    mu = measure_from_paths([constant_path(GRID, [1.5])])
    actions = FiniteActionSet([[-1.0], [2.0]])
    F = terminal_linear_integrand()
    val = hamiltonian_sup_randomized(F, mu, actions, grid_weights=[1.0])
    assert val == 3.0


def test_integrand_must_return_one_value_per_atom():
    # A scalar (one value for the whole law) would broadcast over every atom.
    mu = two_sign_measure()
    actions = FiniteActionSet([[0.0], [1.0]])
    old_style = HamiltonianIntegrand(lambda xs, u, nu: 3.25, tag="old-style")
    for call in (
        lambda: hamiltonian_sup_finite(old_style, mu, actions),
        lambda: hamiltonian_sup_randomized(old_style, mu, actions),
    ):
        with pytest.raises(ContractError, match=r"'old-style'.*shape \(2,\)"):
            call()
    one_row = HamiltonianIntegrand(lambda xs, u, nu: np.zeros(1), nu_dependent=True, tag="one-row")
    with pytest.raises(ContractError, match="'one-row'"):
        hamiltonian_sup_randomized(one_row, mu, actions, grid_weights=[1.0])


def test_finite_forms_call_the_integrand_once_per_action_on_all_atoms():
    rng = np.random.default_rng(6)
    k, q = 5, 4
    mu = EmpiricalPathMeasure(GRID, rng.normal(size=(k, 11, 1)), None)
    actions = FiniteActionSet(rng.normal(size=(q, 2)))
    calls = []

    def F_fn(xs, u, nu):
        calls.append((xs, u.shape, nu))
        return xs.values_now[:, 0] * u[:, 0] - u[:, 1] ** 2

    F = HamiltonianIntegrand(F_fn)
    for form in ("esssup", "maps"):
        calls.clear()
        hamiltonian_sup_finite(F, mu, actions, form=form)
        assert len(calls) == q
        assert all(xs is mu and shape == (k, 2) and nu is None for xs, shape, nu in calls)


def _levels_integrand():
    """F(x_i, u, nu) depends on the atom, the action and nu's mean."""

    def F_fn(xs, u, nu):
        x = xs.values_now[:, 0]
        return x * u[:, 0] + (1.0 + x**2) * (u[:, 0] - nu.mean()[0]) ** 2

    return HamiltonianIntegrand(F_fn, nu_dependent=True, tag="x u + (1+x^2)(u - E nu)^2")


def _brute_force_randomized(mu, actions, w, read=lambda u: u):
    """max over maps (atom i, level g) -> action u[i, g] of
    sum p_i w_g F(x_i, u[i, g], nu), nu the law of the p_i w_g-weighted
    u[i, g], one scalar evaluation per (atom, level).  The F terms read the
    table read(u): a transposing `read` models a pairing of atoms with the
    wrong levels' actions."""
    k, g, q = mu.n_atoms, len(w), len(actions.points)
    x = mu.values_now[:, 0]
    best = -math.inf
    for assignment in itertools.product(range(q), repeat=k * g):
        u = actions.points[list(assignment), 0].reshape(k, g)
        m = EmpiricalControlMeasure(u.reshape(-1, 1), np.outer(mu.weights, w).ravel()).mean()[0]
        r = read(u)
        value = sum(
            mu.weights[i] * w[gi] * (x[i] * r[i, gi] + (1.0 + x[i] ** 2) * (r[i, gi] - m) ** 2)
            for i in range(k)
            for gi in range(g)
        )
        best = max(best, value)
    return best


def test_randomized_nu_dependent_matches_per_atom_brute_force():
    # k = 3 atoms with unequal weights, g = 2 unequal levels: pairing an
    # atom with another level's action changes the value.
    mu = EmpiricalPathMeasure(
        GRID, np.stack([constant_path(GRID, [v]).values for v in (-1.0, 0.5, 2.0)]), [0.5, 0.3, 0.2]
    )
    actions = FiniteActionSet([[-1.0], [0.0], [1.5]])
    w = [0.25, 0.75]
    got = hamiltonian_sup_randomized(_levels_integrand(), mu, actions, grid_weights=w)
    want = _brute_force_randomized(mu, actions, w)
    transposed = _brute_force_randomized(mu, actions, w, read=lambda u: u.ravel().reshape(2, 3).T)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert abs(transposed - want) > 1e-3


def diag_op(v):
    return SpectralOperator(np.atleast_1d(v))


def test_investment_hamiltonian_trivial_zero():
    res = investment_hamiltonian_closed_form(
        [0.0],
        t=0.3,
        r=0.05,
        a2=[0.0],
        C=diag_op([1.0]),
        M=diag_op([1.0]),
        box=BoxActionSet([-1.0], [1.0]),
    )
    assert np.all(res.u_star == 0.0)
    assert res.value == 0.0


def test_investment_hamiltonian_scalar_case():
    res = investment_hamiltonian_closed_form(
        [2.0],
        t=0.0,
        r=0.0,
        a2=[0.0],
        C=diag_op([1.0]),
        M=diag_op([1.0]),
        box=BoxActionSet([-2.0], [2.0]),
    )
    assert res.u_star[0] == pytest.approx(1.0)
    assert res.value == pytest.approx(1.0)


def test_investment_rejects_nonpositive_m():
    with pytest.raises(DomainError):
        investment_hamiltonian_closed_form(
            [1.0],
            0.0,
            0.0,
            [0.0],
            diag_op([1.0]),
            diag_op([0.0]),
            BoxActionSet([-1.0], [1.0]),
        )


def _investment_objective(u, p, t, r, a2, c_diag, m_diag):
    disc = math.exp(-r * t)
    return float(
        np.dot(c_diag * u, p) - disc * (np.dot(a2, u) + np.dot(m_diag * u, u))
    )


def _projected_gradient(p, disc, a2, c_diag, m_diag, lo, hi, iters=4000):
    """Projected gradient ascent on rows of instances at once, step
    1 / (4 disc max m) per row; every update is elementwise, so each row's
    iterates are those of its own loop."""
    u = np.zeros_like(p)
    step = 1.0 / (4.0 * disc * m_diag.max(axis=1, keepdims=True))
    for _ in range(iters):
        grad = c_diag * p - disc * (a2 + 2.0 * m_diag * u)
        u = np.clip(u + step * grad, lo, hi)
    return u


def test_investment_matches_grid_and_projected_gradient():
    rng = np.random.default_rng(3)
    n_grid = 2001
    n_inst, m_max = 100, 3
    # Instances padded to m_max coordinates for the batched projected
    # gradient; a padded coordinate has zero gradient at u = 0 and stays there,
    # and its zero curvature leaves the row's step as it was.
    p_all, a2_all = np.zeros((n_inst, m_max)), np.zeros((n_inst, m_max))
    c_all, m_all = np.zeros((n_inst, m_max)), np.zeros((n_inst, m_max))
    disc_all, u_star = np.empty((n_inst, 1)), []
    for k_inst in range(n_inst):
        m = int(rng.integers(1, 4))
        p = rng.normal(size=m)
        a2 = rng.normal(size=m)
        c_diag = rng.uniform(0.5, 2.0, m)
        m_diag = rng.uniform(0.5, 2.0, m)
        t = rng.uniform(0.0, 1.0)
        r = rng.uniform(0.0, 0.2)
        lo, hi = -2.0 * np.ones(m), 2.0 * np.ones(m)
        res = investment_hamiltonian_closed_form(
            p,
            t,
            r,
            a2,
            diag_op(c_diag),
            diag_op(m_diag),
            BoxActionSet(lo, hi),
        )
        # separable coordinates: per-coordinate grid maximization
        u_grid = np.empty(m)
        for k in range(m):
            g = np.linspace(lo[k], hi[k], n_grid)
            vals = c_diag[k] * g * p[k] - math.exp(-r * t) * (
                a2[k] * g + m_diag[k] * g**2
            )
            u_grid[k] = g[np.argmax(vals)]
        v_grid = _investment_objective(u_grid, p, t, r, a2, c_diag, m_diag)
        du = (hi[0] - lo[0]) / (n_grid - 1)
        curvature_bound = float((math.exp(-r * t) * m_diag).sum()) * (du / 2) ** 2
        assert res.value >= v_grid - 1e-12
        assert res.value - v_grid <= curvature_bound + 1e-12
        p_all[k_inst, :m], a2_all[k_inst, :m] = p, a2
        c_all[k_inst, :m], m_all[k_inst, :m] = c_diag, m_diag
        disc_all[k_inst] = math.exp(-r * t)
        u_star.append(res.u_star)
    u_pg = _projected_gradient(p_all, disc_all, a2_all, c_all, m_all, -2.0, 2.0)
    for k_inst, us in enumerate(u_star):
        assert np.abs(u_pg[k_inst, : len(us)] - us).max() < 1e-8


# ---------------------------------------------------------------------------
# Box supremum


def test_box_esssup_lies_within_the_grid_bound_on_random_concave_quadratics():
    rng = np.random.default_rng(11)
    n_grid = 2001
    for _ in range(60):
        m, k = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        const, lin = rng.normal(size=k), rng.normal(size=(k, m))
        curv = rng.uniform(0.0, 2.0, (k, m))
        curv[rng.random((k, m)) < 0.25] = 0.0  # coordinates linear in u
        lo, hi = -rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
        w = rng.uniform(0.2, 1.0, k)
        w /= w.sum()
        mu = EmpiricalPathMeasure(GRID, rng.normal(size=(k, GRID.steps + 1, 1)), w)
        F = HamiltonianIntegrand(
            lambda xs, u, nu: const + (lin * u - curv * u**2).sum(axis=1), tag="quadratic"
        )
        got = hamiltonian_sup_finite(F, mu, BoxActionSet(lo, hi))
        # separable: per atom and coordinate, the best of a 2001-point grid
        g = np.linspace(lo, hi, n_grid)
        per_coord = (lin[:, None, :] * g - curv[:, None, :] * g**2).max(axis=1)
        v_grid = float(w @ (const + per_coord.sum(axis=1)))
        du = (hi - lo) / (n_grid - 1)
        curvature_bound = float(w @ (curv * (du / 2) ** 2).sum(axis=1))
        assert got >= v_grid - 1e-12
        assert got - v_grid <= curvature_bound + 1e-12


@pytest.mark.parametrize(
    "tag, fn",
    [
        ("cubic", lambda xs, u, nu: (u**3).sum(axis=1)),
        ("convex", lambda xs, u, nu: (u**2).sum(axis=1)),
        ("cross", lambda xs, u, nu: -(u**2).sum(axis=1) + u[:, 0] * u[:, 1]),
    ],
)
def test_box_esssup_refuses_integrands_that_are_not_separable_concave_quadratics(tag, fn):
    box = BoxActionSet([-1.0, -1.0], [1.0, 1.0])
    with pytest.raises(ContractError, match=tag):
        hamiltonian_sup_finite(HamiltonianIntegrand(fn, tag=tag), two_sign_measure(), box)


def test_esssup_refuses_an_action_set_neither_finite_nor_a_box():
    class Ball:
        radius = 1.0

    F = terminal_linear_integrand()
    with pytest.raises(ContractError, match="Ball"):
        hamiltonian_sup_finite(F, two_sign_measure(), Ball())
    with pytest.raises(ContractError, match="Ball"):
        hamiltonian_sup_randomized(F, two_sign_measure(), Ball())


def test_box_esssup_of_an_investment_integrand_matches_the_closed_form():
    rng = np.random.default_rng(5)
    mu = measure_from_paths([constant_path(GRID, [0.0])])
    for _ in range(50):
        m = int(rng.integers(1, 4))
        p, a2 = rng.normal(size=m), rng.normal(size=m)
        c_diag, m_diag = rng.uniform(0.5, 2.0, m), rng.uniform(0.5, 2.0, m)
        t, r = rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.2)
        box = BoxActionSet(-2.0 * np.ones(m), 2.0 * np.ones(m))
        want = investment_hamiltonian_closed_form(
            p, t, r, a2, diag_op(c_diag), diag_op(m_diag), box
        ).value
        F = HamiltonianIntegrand(
            lambda xs, u, nu: _investment_objective(u[0], p, t, r, a2, c_diag, m_diag) * np.ones(1),
            tag="investment",
        )
        assert hamiltonian_sup_finite(F, mu, box) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# HJB residual


def linear_value_model(grid, a, beta, s0, c, q):
    """d=1 uncontrolled linear model: dX = (aX + beta) dt + s0 dB (mild form),
    f = c x_t, g = q x_T."""

    def drift(t, xs, mu, u, nu):
        return np.full((xs.n, 1), beta)

    def diffusion(t, xs, mu, u, nu):
        return np.full((xs.n, 1), s0)

    def running(t, xs, mu, u, nu):
        return c * xs.values_now[:, 0]

    def terminal(xs, mu):
        return q * xs.values_now[:, 0]

    return ModelSpec(
        grid=grid,
        A=SpectralOperator([a]),
        drift=drift,
        diffusion=diffusion if s0 else None,
        running_cost=running,
        terminal_cost=terminal,
        lipschitz=max(abs(beta), abs(s0), 1e-12),
        actions=FiniteActionSet([[0.0]]),
        tag="linear_value",
    )


def feynman_kac_candidate(grid, a, beta, c, q, scale=1.0):
    """Closed-form value w(t, mu) = kappa0(t) + kappa1(t) mean(mu at t)."""
    T = grid.T

    def kappa1(t):
        e = math.exp(a * (T - t))
        return q * e + (c / a) * (e - 1.0)

    def kappa0(t):
        e = math.exp(a * (T - t))
        return beta * ((q + c / a) * (e - 1.0) / a - (c / a) * (T - t))

    def ev(t, mu):
        m = float(mu.weights @ mu.values_at(t)[:, 0])
        return scale * (kappa0(t) + kappa1(t) * m)

    def dt_fn(run):
        out = []
        for t, x in zip(run.ts.tolist(), run.now):
            m = float(run.weights @ x[:, 0])
            e = math.exp(a * (T - t))
            k0p = beta * (-(q + c / a) * e + c / a)
            k1p = -(a * q + c) * e
            out.append(scale * (k0p + k1p * m))
        return np.array(out)

    return CylindricalFunctional(
        tag=f"feynman_kac(x{scale})",
        eval_fn=ev,
        dt_fn=dt_fn,
        dmu_fn=lambda run: np.stack(
            [np.full((run.now.shape[1], 1), scale * kappa1(t)) for t in run.ts.tolist()]
        ),
        dxdmu_fn=lambda run: np.zeros(run.now.shape[:2] + (1, 1)),
    )


def test_hjb_residual_feynman_kac_candidate():
    grid = TimeGrid(1.0, 100)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = linear_value_model(grid, a, beta, s0, c, q)
    w = feynman_kac_candidate(grid, a, beta, c, q)
    rng = np.random.default_rng(4)
    mu = EmpiricalPathMeasure(grid, rng.normal(size=(6, grid.steps + 1, 1)), None)
    for t in (0.0, 0.3, 0.7):
        rep = hjb_residual(w, model, t, mu)
        assert abs(rep.residual) < 1e-12
    rep_T = hjb_residual(w, model, 0.5, mu)
    assert rep_T.terminal_gap < 1e-12


def test_hjb_candidate_agrees_with_monte_carlo_value():
    grid = TimeGrid(1.0, 200)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = linear_value_model(grid, a, beta, s0, c, q)
    w = feynman_kac_candidate(grid, a, beta, c, q)
    x0 = 0.8
    ens = integrate(model, constant_initial([x0]), n_particles=3000, seed=5)
    est = reward(model, ens, 0.0)
    mu0 = stopped_measure(ens.law(), 0.0)
    w_val = w.eval(0.0, mu0)
    assert abs(w_val - est.mean) <= 3 * est.stderr + 10 * grid.dt * abs(w_val)


def test_hjb_residual_trivial_constant_candidate():
    grid = TimeGrid(1.0, 10)
    g_const = 2.0
    model = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        terminal_cost=lambda xs, mu: np.full(xs.n, g_const),
        lipschitz=0.0,
        actions=FiniteActionSet([[0.0]]),
        tag="const_g",
    )
    w = CylindricalFunctional(
        tag="const",
        eval_fn=lambda t, mu: g_const,
        dt_fn=lambda run: np.zeros(len(run.ts)),
        dmu_fn=lambda run: np.zeros(run.now.shape[:2] + (1,)),
        dxdmu_fn=lambda run: np.zeros(run.now.shape[:2] + (1, 1)),
    )
    mu = measure_from_paths([constant_path(grid, [0.3]), constant_path(grid, [-0.3])])
    rep = hjb_residual(w, model, 0.5, mu)
    assert rep.residual == 0.0
    assert rep.terminal_gap == 0.0


def test_hjb_residual_flags_wrong_candidate():
    grid = TimeGrid(1.0, 50)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = linear_value_model(grid, a, beta, s0, c, q)
    wrong = feynman_kac_candidate(grid, a, beta, c, q, scale=2.0)
    mu = measure_from_paths([constant_path(grid, [1.0]), constant_path(grid, [-0.5])])
    rep = hjb_residual(wrong, model, 0.4, mu)
    assert abs(rep.residual) > 1e-3


def test_hjb_residual_affine_in_derivative_fields():
    # doubling the candidate doubles the f-free part of the residual when the
    # argmax control is fixed (singleton U fixes it trivially).
    grid = TimeGrid(1.0, 50)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = linear_value_model(grid, a, beta, s0, c, q)
    w1 = feynman_kac_candidate(grid, a, beta, c, q, scale=1.0)
    w2 = feynman_kac_candidate(grid, a, beta, c, q, scale=2.0)
    mu = measure_from_paths([constant_path(grid, [1.0]), constant_path(grid, [-0.5])])
    t = 0.4
    r1 = hjb_residual(w1, model, t, mu)
    r2 = hjb_residual(w2, model, t, mu)
    f_part = float(mu.weights @ (c * mu.values_at(t)[:, 0]))
    assert r2.residual - f_part == pytest.approx(2.0 * (r1.residual - f_part), abs=1e-10)


def test_hjb_residual_refuses_an_anticipative_model():
    # the model is refused when it is built, before the residual or integrate
    # can read it
    grid = TimeGrid(1.0, 50)
    with pytest.raises(ConfigurationError, match="anticipative"):
        replace(
            linear_value_model(grid, -1.0, 0.4, 0.3, 0.5, 1.0),
            drift=lambda t, xs, mu, u, nu: xs._values[:, -1],
            tag="cheater",
        )


def test_hjb_residual_refuses_a_model_without_an_action_set():
    grid = TimeGrid(1.0, 50)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = replace(linear_value_model(grid, a, beta, s0, c, q), actions=None)
    w = feynman_kac_candidate(grid, a, beta, c, q)
    mu = measure_from_paths([constant_path(grid, [1.0]), constant_path(grid, [-0.5])])
    with pytest.raises(ContractError, match="sup of 'model:linear_value' needs a finite or a box U"):
        hjb_residual(w, model, 0.4, mu)


def test_candidate_without_fields_rejected():
    grid = TimeGrid(1.0, 10)
    model = linear_value_model(grid, -1.0, 0.0, 0.0, 0.1, 1.0)
    bare = CylindricalFunctional(tag="bare", eval_fn=lambda t, mu: 0.0)
    mu = measure_from_paths([constant_path(grid, [0.0])])
    with pytest.raises(UnsupportedFunctionalError, match="functional 'bare' has no analytic derivative fields"):
        hjb_residual(bare, model, 0.5, mu)
    with pytest.raises(UnsupportedFunctionalError, match="functional 'bare' has no analytic derivative fields"):
        hamiltonian_from_model(model, bare, 0.5, mu)


def test_hjb_reads_the_law_stopped_at_t_like_integrate():
    # At the same (t, mu), the Hamiltonian integrand and the residual hand the
    # coefficients the law stopped at t, the view integrate and reward use.
    grid = TimeGrid(1.0, 10)
    t = 0.3
    cloud = np.cumsum(np.random.default_rng(23).normal(size=(6, grid.steps + 1, 1)), axis=1)
    calls = {"b": [], "f": []}

    def drift(s, xs, mu, u, nu):
        out = 0.5 * (mu.mean_at(s)[None, :] - xs.values_now)
        calls["b"].append(out)
        return out

    def running(s, xs, mu, u, nu):
        out = mu.weights @ mu.seminorm_sq_at(s) + xs.values_now[:, 0]
        calls["f"].append(out)
        return out

    model = ModelSpec(
        grid=grid,
        A=SpectralOperator([0.0]),
        drift=drift,
        running_cost=running,
        lipschitz=1.0,
        actions=FiniteActionSet([[0.0]]),
        tag="law_reader",
    )
    # drop the calls of the check the model got when it was built
    calls["b"].clear()
    calls["f"].clear()
    ens = integrate(model, InitialLaw.from_values(cloud), t0=t, n_particles=6, t_end=t + grid.dt)
    reward(model, ens, t)
    # first calls: the step and the running cost at the node of t
    via_integrate = calls["f"][0] + calls["b"][0][:, 0]

    mu = EmpiricalPathMeasure(grid, cloud, None)
    stopped_moment = calls["f"][0][0] - cloud[0, grid.node(t), 0]
    assert mu.weights @ mu.seminorm_sq_at(grid.T) > stopped_moment + 1.0  # stopping matters here
    w = linear_mean([1.0])  # d_mu w = 1, so F = f + b
    F = hamiltonian_from_model(model, w, t, mu)
    via_hjb = F(mu, None)
    np.testing.assert_allclose(via_hjb, via_integrate, rtol=1e-12, atol=1e-12)
    rep = hjb_residual(w, model, t, mu)
    assert rep.hamiltonian == pytest.approx(float(via_integrate.mean()), rel=1e-12)
    assert rep.residual == pytest.approx(float(via_integrate.mean()), rel=1e-12)


def test_hjb_residual_takes_the_box_supremum_of_a_control_linear_model():
    model = make_controlled_linear(GRID, c=1.0, s0=0.3, actions=BoxActionSet([-1.0], [1.0]))
    rep = hjb_residual(linear_mean(1), model, 0.5, two_sign_measure())
    assert rep.hamiltonian == 1.0  # F = u, so each atom takes u = 1


def test_map_enumeration_on_a_box_raises_contract_error_naming_a_finite_u():
    mu = measure_from_paths([constant_path(GRID, [0.0])])
    F = HamiltonianIntegrand(lambda xs, u, nu: -u[:, 0] ** 2, tag="-u^2")
    box = BoxActionSet([-1.0], [1.0])
    assert hamiltonian_sup_finite(F, mu, box) == 0.0
    with pytest.raises(ContractError, match=r"'-u\^2' needs a finite U, got BoxActionSet"):
        hamiltonian_sup_finite(F, mu, box, form="maps")


def test_randomized_nu_dependent_enumeration_on_a_box_raises_contract_error_naming_a_finite_u():
    mu = measure_from_paths([constant_path(GRID, [0.0])])
    F = HamiltonianIntegrand(lambda xs, u, nu: -u[:, 0] ** 2, nu_dependent=True, tag="-u^2")
    with pytest.raises(ContractError, match=r"'-u\^2' needs a finite U, got BoxActionSet"):
        hamiltonian_sup_randomized(F, mu, BoxActionSet([-1.0], [1.0]))
