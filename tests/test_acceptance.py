"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every tolerance and particle/step count is pinned here to the stated value;
runtime budgets are enforced with wall-clock asserts.  Run with `pytest -s
tests/test_acceptance.py` to see the per-criterion lines.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from pathmkv import calculus, models
from pathmkv.cli import run as cli_run
from pathmkv.control import (
    BoxActionSet,
    FiniteActionSet,
    constant_policy,
    dpp_check,
    law_invariance_check,
)
from pathmkv.hilbert import SpectralOperator
from pathmkv.hjb import (
    HamiltonianIntegrand,
    hamiltonian_sup_finite,
    hamiltonian_sup_randomized,
    investment_hamiltonian_closed_form,
)
from pathmkv.measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    wasserstein2,
    wasserstein2_controls,
)
from pathmkv.paths import PathGrid, TimeGrid, sup_norm
from pathmkv.rng import refine_increments
from pathmkv.sde import (
    constant_initial,
    flow_restart_check,
    gaussian_initial,
    integrate,
    integrate_yosida,
    ramp_initial,
    s2_distance,
    stopped_initial,
    two_point_initial,
    two_point_mapped,
)

SEED = 20240915


def report(num, desc, ok, detail=""):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def budget(num, elapsed, limit):
    assert elapsed < limit, f"criterion {num}: runtime {elapsed:.1f}s over budget {limit}s"


def test_criterion_01_ou_oracle():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1000)  # dt = 1e-3
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    n = 4000
    ens = integrate(model, constant_initial([0.0]), None, 0.0, n, SEED)
    x = ens.values[:, -1, 0]
    var_theory = 0.25 * (1 - math.exp(-2.0)) / 2.0
    se_mean = x.std(ddof=1) / math.sqrt(n)
    se_var = x.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    ok = abs(x.mean()) <= 3 * se_mean and abs(x.var(ddof=1) - var_theory) <= 3 * se_var
    elapsed = time.perf_counter() - t0
    budget(1, elapsed, 10.0)
    report(
        1,
        "OU oracle: terminal mean and variance within 3 SE",
        ok,
        f"mean {x.mean():.2e}, var {x.var(ddof=1):.5f} vs {var_theory:.5f}, {elapsed:.1f}s",
    )


def test_criterion_02_meanfield_coupling_oracle():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1000)
    model = models.make_meanfield_ou(grid, theta=1.0, s0=0.0)
    ens = integrate(model, two_point_initial(-1.0, 1.0), None, 0.0, 64, SEED)
    mean_drift = np.abs(ens.values.mean(axis=0)[:, 0]).max()
    target = ens.values[:, 0, 0][:, None] * np.exp(-grid.times)[None, :]
    decay_gap = np.abs(ens.values[:, :, 0] - target).max()
    ok = mean_drift <= 1e-12 and decay_gap <= 1.0 * grid.dt
    elapsed = time.perf_counter() - t0
    budget(2, elapsed, 5.0)
    report(
        2,
        "mean-field coupling: mean constant to 1e-12, decay within O(dt)",
        ok,
        f"mean drift {mean_drift:.1e}, decay gap {decay_gap:.1e}, {elapsed:.1f}s",
    )


def test_criterion_03_weak_order():
    t0 = time.perf_counter()
    n, fine_steps = 4000, 400
    factors = (8, 4, 2)
    rungs = refine_increments(SEED + 3, n, fine_steps, 1, 1.0 / fine_steps, factors)
    errors = []
    for factor, noise in zip(factors, rungs):
        grid = TimeGrid(1.0, fine_steps // factor)
        model = models.make_ou_drift(grid, kappa=1.0, s0=0.1)
        ens = integrate(
            model,
            constant_initial([4.0]),
            None,
            0.0,
            n,
            SEED + 3,
            noise=noise,
        )
        errors.append(abs(ens.values[:, -1, 0].mean() - 4.0 * math.exp(-1.0)))
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    ok = all(0.3 <= r <= 0.7 for r in ratios)
    elapsed = time.perf_counter() - t0
    budget(3, elapsed, 30.0)
    report(
        3,
        "weak order: mean error halves when dt halves (3 rungs, common noise)",
        ok,
        f"ratios {[f'{r:.2f}' for r in ratios]}, {elapsed:.1f}s",
    )


def test_criterion_04_yosida_convergence():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1000)
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    init = constant_initial([1.0])
    base = integrate(model, init, None, 0.0, 2000, SEED)
    dists = [
        s2_distance(integrate_yosida(model, nn, init, None, 0.0, 2000, SEED), base)
        for nn in (2, 8, 32)
    ]
    from pathmkv.acceptance import yosida_oracle_gap

    oracle = yosida_oracle_gap(-1.0, 32, grid, 0.5, 1.0)
    ok = dists[0] > dists[1] > dists[2] and dists[-1] <= 10.0 * oracle
    elapsed = time.perf_counter() - t0
    budget(4, elapsed, 20.0)
    report(
        4,
        "Yosida ladder strictly decreasing, final within 10x scalar oracle",
        ok,
        f"dists {[f'{d:.4f}' for d in dists]}, oracle {oracle:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_flow_property():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 500)
    init = two_point_initial(-1.0, 1.0)
    gaps = {}
    for tag, factory in (
        ("frozen", lambda: models.make_frozen(grid)),
        ("ou", lambda: models.make_ou(grid, a=-1.0, s0=0.5)),
        ("ou_drift", lambda: models.make_ou_drift(grid, kappa=1.0, s0=0.3)),
        ("meanfield_ou", lambda: models.make_meanfield_ou(grid, theta=1.0, s0=0.2)),
        ("meanfield_growth", lambda: models.make_meanfield_growth(grid, theta=1.0, s0=0.1)),
        ("quadratic_terminal", lambda: models.make_quadratic_terminal(grid, a=-1.0, s0=0.5)),
    ):
        rep = flow_restart_check(factory(), init, None, 0.0, 0.5, 64, SEED)
        gaps[tag] = rep["max_particle_gap"]
    ok = all(g == 0.0 for g in gaps.values())
    elapsed = time.perf_counter() - t0
    budget(5, elapsed, 10.0)
    report(5, "flow property: restart gap exactly 0.0 on all built-in models", ok,
           f"gaps {sorted(set(gaps.values()))}, {elapsed:.1f}s")


def test_criterion_06_nonanticipativity():
    grid = TimeGrid(1.0, 500)
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    init = ramp_initial(1.0)
    a = integrate(model, init, None, 0.3, 64, SEED)
    b = integrate(model, stopped_initial(init, 0.3), None, 0.3, 64, SEED)
    ok = np.array_equal(a.values, b.values) and (
        a.controls is None and b.controls is None
    )
    report(6, "solution map byte-identical under initial-path stopping", ok)


def test_criterion_07_w2_bruteforce_and_axioms():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 5)

    def brute(mu, nu):
        n = mu.n_atoms
        cost = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                cost[i, j] = sup_norm(PathGrid(grid, mu.atoms[i] - nu.atoms[j])) ** 2
        return math.sqrt(
            min(
                sum(cost[i, p[i]] for i in range(n)) / n
                for p in itertools.permutations(range(n))
            )
        )

    max_gap = 0.0
    for k in range(100):
        r = np.random.default_rng(SEED + k)
        n = int(r.integers(2, 7))
        mu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        nu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        max_gap = max(max_gap, abs(wasserstein2(mu, nu) - brute(mu, nu)))

    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        a, b, c = (
            EmpiricalPathMeasure(grid, rng.normal(size=(n, 6, 2)), None) for _ in range(3)
        )
        dab, dba = wasserstein2(a, b), wasserstein2(b, a)
        worst = max(worst, abs(dab - dba), dab - (wasserstein2(a, c) + wasserstein2(c, b)))
    ok = max_gap <= 1e-10 and worst <= 1e-10
    elapsed = time.perf_counter() - t0
    report(
        7,
        "exact W2 matches brute force (100 instances) and metric axioms (1000 triples)",
        ok,
        f"max brute gap {max_gap:.1e}, worst axiom violation {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_08_discrete_measure_derivative():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 20)
    rng = np.random.default_rng(SEED)
    mu = EmpiricalPathMeasure(grid, rng.normal(size=(6, 21, 2)), None)
    zoo = calculus.standard_zoo(2)
    eps = 1e-5
    fd_errs, rich_errs = [], []
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        phi = zoo[tag]
        analytic = phi.dmu_field(0.5, mu)
        fd = calculus.measure_derivative_field(phi, 0.5, mu, eps=eps)
        rich = calculus.measure_derivative_field(phi, 0.5, mu, eps=eps, richardson=True)
        fd_errs.append(float(np.abs(fd - analytic).max()))
        rich_errs.append(float(np.abs(rich - analytic).max()))
    ok = max(fd_errs) <= 1e-5 and max(rich_errs) < max(fd_errs)
    elapsed = time.perf_counter() - t0
    budget(8, elapsed, 5.0)
    report(
        8,
        "discrete measure derivative: FD error <= 1e-5 at eps=1e-5, Richardson decreases",
        ok,
        f"max fd {max(fd_errs):.1e}, max richardson {max(rich_errs):.1e}, {elapsed:.1f}s",
    )


def test_criterion_09_functional_ito_battery():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1000)
    n = 4000
    zoo = calculus.standard_zoo(1)
    drives = [
        calculus.const_drift_spec(grid, [0.7]),
        calculus.const_diffusion_spec(grid, 0.5),
        calculus.drift_diffusion_spec(grid, [0.4], 0.3),
        calculus.linear_drift_diffusion_spec(grid, 1.0, 0.3),
    ]
    init = gaussian_initial(0.0, 0.5)
    failures = []
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        for drive in drives:
            rep = calculus.ito_verify(
                zoo[tag], drive, init, t=0.0, s=1.0, n_particles=n, seed=SEED, dt_coeff=10.0,
            )
            if not rep.passed:
                failures.append((tag, drive.tag, rep.residual, rep.stderr))
    # A*-variant on the OU model with the linear functional
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    rep = calculus.ito_verify(
        zoo["linear_mean"], model, constant_initial([2.0]), t=0.0, s=1.0,
        n_particles=n, seed=SEED, dt_coeff=10.0,
    )
    if not rep.passed:
        failures.append(("linear_mean", "mild:ou", rep.residual, rep.stderr))
    elapsed = time.perf_counter() - t0
    budget(9, elapsed, 120.0)
    report(
        9,
        "functional Ito formula: |residual| <= 3 SE + 10 dt on zoo x drives + A* variant",
        not failures,
        f"{13 - len(failures)}/13 combos, {elapsed:.1f}s",
    )


def test_criterion_10_dpp_tower():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 1000)
    model = models.make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init = constant_initial([0.5])
    reps = [
        dpp_check(model, init, None, 0.0, s, 4000, SEED) for s in (0.25, 0.5, 0.75)
    ]
    ok = all(r.passed for r in reps)
    elapsed = time.perf_counter() - t0
    budget(10, elapsed, 60.0)
    report(
        10,
        "DPP tower identity within 3 combined SE at three split times",
        ok,
        "gaps " + str([f"{r.gap:.2e}<={3 * r.stderr:.2e}" for r in reps]) + f", {elapsed:.1f}s",
    )


def test_criterion_11_law_invariance():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 500)
    model = models.make_quadratic_terminal(grid, a=-1.0, s0=0.5)
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    families = [
        [None],
        [constant_policy([0.0])],
        [constant_policy([0.0]), constant_policy([0.5])],
        [constant_policy([0.25]), constant_policy([0.75])],
    ]
    rep = law_invariance_check(model, init_a, init_b, families, 0.0, 2000, seeds=(SEED, SEED + 77))
    guard = law_invariance_check(
        model,
        gaussian_initial(0.0, 1.0),
        gaussian_initial(0.5, 1.0),
        [[None]],
        0.0,
        512,
        seeds=(SEED + 1, SEED + 2),
    )
    ok = rep.status == "pass" and guard.status == "inconclusive"
    elapsed = time.perf_counter() - t0
    budget(11, elapsed, 60.0)
    report(
        11,
        "law invariance across 4 policy families; guard rail flags inconclusive",
        ok,
        f"status {rep.status}, guard {guard.status}, {elapsed:.1f}s",
    )


def test_criterion_12_hamiltonian_three_forms():
    t0 = time.perf_counter()
    grid = TimeGrid(1.0, 4)
    mismatches = 0
    for k_inst in range(50):
        r = np.random.default_rng(SEED + k_inst)
        k = int(r.integers(1, 5))
        q = int(r.integers(1, 6))
        w = r.uniform(0.2, 1.0, k)
        w /= w.sum()
        mu = EmpiricalPathMeasure(grid, r.normal(size=(k, 5, 1)), w)
        actions = FiniteActionSet(r.normal(size=(q, 1)))
        table = r.normal(size=(k, q))

        def F_fn(xs, u, nu, table=table, actions=actions):
            l = np.argmin(np.abs(actions.points[None, :, 0] - u[:, :1]), axis=1)
            return table[np.arange(xs.n_atoms), l]

        F = HamiltonianIntegrand(F_fn)
        vals = [
            hamiltonian_sup_finite(F, mu, actions, form=f)
            for f in ("esssup", "maps")
        ]
        if not (vals[0] == vals[1]):
            mismatches += 1

    mu1 = EmpiricalPathMeasure(grid, np.zeros((1, 5, 1)), None)
    actions = FiniteActionSet([[0.0], [0.5], [1.0]])
    uniform = EmpiricalControlMeasure(actions.points)

    def F_pen(xs, u, nu):
        if nu is None:
            nu = EmpiricalControlMeasure(u)
        return np.full(xs.n_atoms, -wasserstein2_controls(nu, uniform))

    F = HamiltonianIntegrand(F_pen, nu_dependent=True)
    rand_val = hamiltonian_sup_randomized(F, mu1, actions)
    det_best = max(F(mu1, u[None])[0] for u in actions.points)
    strict = rand_val > det_best
    ok = mismatches == 0 and strict
    elapsed = time.perf_counter() - t0
    budget(12, elapsed, 10.0)
    report(
        12,
        "Hamiltonian forms exactly equal (50 instances); randomized beats deterministic",
        ok,
        f"mismatches {mismatches}, randomized {rand_val:.3f} > deterministic {det_best:.3f}, {elapsed:.1f}s",
    )


def test_criterion_13_investment_hamiltonian():
    t0 = time.perf_counter()
    n_grid = 2001
    n_inst, m_max = 100, 3
    worst_grid_excess = -np.inf
    # Instances padded to m_max coordinates for the batched projected gradient
    # below; a padded coordinate has zero gradient at u = 0 and stays there.
    p_all, a2_all = np.zeros((n_inst, m_max)), np.zeros((n_inst, m_max))
    c_all, m_all = np.zeros((n_inst, m_max)), np.ones((n_inst, m_max))
    disc_all, step_all, u_star = np.empty((n_inst, 1)), np.empty((n_inst, 1)), []
    for k_inst in range(n_inst):
        r = np.random.default_rng(SEED + 31 * k_inst)
        m = int(r.integers(1, m_max + 1))
        p = r.normal(size=m)
        a2 = r.normal(size=m)
        c_diag = r.uniform(0.5, 2.0, m)
        m_diag = r.uniform(0.5, 2.0, m)
        t = float(r.uniform(0.0, 1.0))
        rr = float(r.uniform(0.0, 0.2))
        lo, hi = -2.0 * np.ones(m), 2.0 * np.ones(m)
        res = investment_hamiltonian_closed_form(
            p, t, rr, a2,
            SpectralOperator(c_diag), SpectralOperator(m_diag), BoxActionSet(lo, hi),
        )
        disc = math.exp(-rr * t)
        u_grid = np.empty(m)
        for k in range(m):
            g = np.linspace(lo[k], hi[k], n_grid)
            u_grid[k] = g[np.argmax(c_diag[k] * g * p[k] - disc * (a2[k] * g + m_diag[k] * g**2))]
        v_grid = float(
            np.dot(c_diag * u_grid, p)
            - disc * (np.dot(a2, u_grid) + np.dot(m_diag * u_grid, u_grid))
        )
        du = (hi[0] - lo[0]) / (n_grid - 1)
        bound = float((disc * m_diag).sum()) * (du / 2) ** 2
        worst_grid_excess = max(worst_grid_excess, abs(res.value - v_grid) - bound)
        p_all[k_inst, :m], a2_all[k_inst, :m] = p, a2
        c_all[k_inst, :m], m_all[k_inst, :m] = c_diag, m_diag
        disc_all[k_inst] = disc
        step_all[k_inst] = 1.0 / (4.0 * disc * m_diag.max())
        u_star.append(res.u_star)
    # Every update is elementwise, so each instance's iterates are those of
    # its own 4000-step loop.
    u = np.zeros((n_inst, m_max))
    for _ in range(4000):
        u = np.clip(u + step_all * (c_all * p_all - disc_all * (a2_all + 2.0 * m_all * u)), -2.0, 2.0)
    worst_pg = max(
        float(np.abs(u[i, : len(us)] - us).max()) for i, us in enumerate(u_star)
    )
    ok = worst_grid_excess <= 0.0 and worst_pg <= 1e-8
    elapsed = time.perf_counter() - t0
    budget(13, elapsed, 5.0)
    report(
        13,
        "investment Hamiltonian: closed form within grid bound and 1e-8 of projected gradient",
        ok,
        f"grid excess {worst_grid_excess:.1e}, pg gap {worst_pg:.1e}, {elapsed:.1f}s",
    )


def test_criterion_14_suite_subcommand(tmp_path):
    t0 = time.perf_counter()
    out_a = str(tmp_path / "suite_a")
    out_b = str(tmp_path / "suite_b")
    status_a = cli_run("suite", None, out_a)
    status_b = cli_run("suite", None, out_b)
    elapsed = time.perf_counter() - t0
    with open(f"{out_a}/report.json") as fh:
        rep_a = json.load(fh)
    with open(f"{out_b}/report.json") as fh:
        rep_b = json.load(fh)
    del rep_a["wall_time_s"], rep_b["wall_time_s"]
    deterministic = json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
    ok = status_a == 0 and status_b == 0 and deterministic and elapsed < 600.0
    report(
        14,
        "suite subcommand: exit 0, deterministic report, under 10 minutes",
        ok,
        f"exits ({status_a},{status_b}), deterministic {deterministic}, {elapsed:.0f}s for two runs",
    )
