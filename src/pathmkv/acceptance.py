"""Acceptance criteria: the runner behind every subcommand, and `SUITE`, which
maps each block of the `pathmkv suite` report to its criterion in criterion
order.  Each is called as f(cfg, out_dir) on a config that cli.resolve_config
filled with every default, and returns a JSON-ready dict with a "pass" flag;
all randomness flows from cfg["seed"].  Every run is serial.
"""

from __future__ import annotations

import functools
import itertools
import math
import os

import numpy as np

from . import calculus, models
from .calculus import CylindricalFunctional
from .control import (
    BoxActionSet,
    FiniteActionSet,
    constant_policy,
    dpp_check,
    law_invariance_check,
)
from .errors import ConfigurationError
from .hilbert import SpectralOperator
from .hjb import (
    ENUMERATION_CAP,
    HamiltonianIntegrand,
    hamiltonian_sup_finite,
    hamiltonian_sup_randomized,
    hjb_residual,
    investment_hamiltonian_closed_form,
)
from .measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    wasserstein2,
    wasserstein2_controls,
)
from .paths import PathGrid, TimeGrid, sup_norm
from .rng import refine_increments
from .sde import (
    InitialLaw,
    ModelSpec,
    constant_initial,
    draw_scope,
    flow_restart_check,
    gaussian_initial,
    integrate,
    integrate_picard,
    integrate_yosida,
    ramp_initial,
    s2_distance,
    stopped_initial,
    two_point_initial,
    two_point_mapped,
)

# ---------------------------------------------------------------------------
# Config -> object builders.


def build_grid(cfg) -> TimeGrid:
    g = cfg["grid"]
    return TimeGrid(float(g["T"]), int(g["steps"]))


def build_model(cfg, grid=None):
    grid = build_grid(cfg) if grid is None else grid
    spec = cfg["model"]
    if "actions" in spec.get("params", {}):
        raise ConfigurationError("config key 'model.params.actions' cannot be set: an action set has no config form")
    return models.build_model(spec["tag"], grid, **spec.get("params", {}))


# Initial-law kind -> (constructor, the keys it reads with their defaults, in
# the constructor's argument order).
_INITIAL_LAWS = {
    "constant": (constant_initial, {"value": [0.0]}),
    "two_point": (two_point_initial, {"a": -1.0, "b": 1.0}),
    "gaussian": (gaussian_initial, {"mean": 0.0, "std": 1.0}),
    "ramp": (ramp_initial, {"scale": 1.0}),
}


def build_initial(cfg) -> InitialLaw:
    spec = cfg["initial"]
    kind = spec["kind"]
    if kind not in _INITIAL_LAWS:
        raise ConfigurationError(f"unknown initial law kind {kind!r}")
    make, defaults = _INITIAL_LAWS[kind]
    for key in spec:
        if key != "kind" and key not in defaults:
            raise ConfigurationError(
                f"config key 'initial.{key}' is not read by initial kind {kind!r}; "
                f"it reads {sorted(defaults)}"
            )
    return make(*(spec.get(key, default) for key, default in defaults.items()))


def build_policy(spec, key):
    """Policy from an entry of the config list `key`: {"kind": "constant",
    "u": [..]} or {"kind": "uncontrolled"}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"config key {key!r}: policy spec must be an object with a kind, got {spec!r}")
    kind = spec["kind"]
    if kind == "uncontrolled":
        return None
    if kind != "constant":
        raise ConfigurationError(f"config key {key!r}: unknown policy kind {kind!r}")
    u = spec.get("u")
    if not isinstance(u, list) or not u or any(
        isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x) for x in u
    ):
        raise ConfigurationError(
            f"config key {key!r}: constant policy needs a 'u' action vector, a non-empty list of finite numbers; got {u!r}"
        )
    return constant_policy(u)


# ---------------------------------------------------------------------------
# Subcommand runners.


def check_block(check) -> dict:
    """The report block of a check dataclass (an ItoReport, DppReport or
    LawInvarianceReport): every field, with `passed` written as `pass`."""
    block = dict(vars(check))
    if "passed" in block:
        block["pass"] = block.pop("passed")
    return block


def run_simulate(cfg, out_dir):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    t0 = float(cfg["simulate"]["t0"])
    ens = integrate(model, init, None, t0, cfg["particles"], cfg["seed"])
    if cfg["simulate"]["export_paths"]:
        ens.export(os.path.join(out_dir, "paths"))
    return {"pass": True, "moments": ens.summary_moments(), "model": model.tag}


def run_picard(cfg, out_dir):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    pcfg = cfg["picard"]
    tol = float(pcfg["tol"])
    res = integrate_picard(
        model,
        init,
        None,
        0.0,
        cfg["particles"],
        cfg["seed"],
        tol=tol,
        max_iter=int(pcfg["max_iter"]),
        window=pcfg["window"],
    )
    direct = integrate(model, init, None, 0.0, cfg["particles"], cfg["seed"])
    agreement = s2_distance(res.ensemble, direct)
    ok = agreement <= tol + 10.0 * grid.dt
    return {
        "pass": bool(ok),
        "iterations": res.iterations,
        "gaps": res.gaps,
        "windows": res.windows,
        "agreement_with_direct": agreement,
    }


def yosida_oracle_gap(a, n, grid, s0, x0):
    """Scalar reference magnitude for ||X^n - X||: semigroup gap on the mean
    plus the terminal standard deviation of the accumulated factor mismatch."""
    lam_n = n * a / (n - a)
    times = grid.times
    mean_gap = abs(x0) * np.abs(np.exp(lam_n * times) - np.exp(a * times)).max()
    tail = times[-1] - times[:-1]
    stoch = s0 * math.sqrt(
        float(((np.exp(lam_n * tail) - np.exp(a * tail)) ** 2).sum() * grid.dt)
    )
    return mean_gap + stoch


def run_yosida(cfg, out_dir):
    tag = cfg["model"]["tag"]
    if tag != "ou":
        raise ConfigurationError(
            f"config key 'model.tag' must be 'ou' for yosida-converge, whose oracle is the "
            f"OU closed form; got {tag!r}"
        )
    spec = cfg["initial"]
    if spec["kind"] != "constant":
        raise ConfigurationError(
            f"config key 'initial.kind' must be 'constant' for yosida-converge, whose oracle "
            f"starts from a deterministic x0; got {spec['kind']!r}"
        )
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    ladder = cfg["yosida"]["ladder"]
    n_particles, seed = cfg["particles"], cfg["seed"]
    # every rung is compared with the base run on the same Brownian paths
    with draw_scope():
        base = integrate(model, init, None, 0.0, n_particles, seed)
        dists = []
        for n in ladder:
            yos = integrate_yosida(model, n, init, None, 0.0, n_particles, seed)
            dists.append(s2_distance(yos, base))
            del yos  # the next rung is run without this one's paths alive
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    # |sigma| of the built model (its diffusion is one constant row) and x0 of the built initial law
    sigma = 0.0 if model.diffusion is None else abs(float(model.diffusion(0.0, None, None, None, None)[0]))
    x0 = float(np.linalg.norm(init.sample(seed, 1, grid, model.A.dim)[0, 0]))
    oracle = yosida_oracle_gap(float(model.A.eigenvalues[0]), ladder[-1], grid, sigma, x0)
    within_oracle = dists[-1] <= 10.0 * oracle if oracle > 0 else True
    return {
        "pass": bool(decreasing and within_oracle),
        "ladder": list(ladder),
        "distances": dists,
        "oracle_bound_x10": 10.0 * oracle,
    }


def run_particles_converge(cfg, out_dir):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    pcfg = cfg["particles_converge"]
    rungs = pcfg["rungs"]
    n_seeds = int(pcfg["n_seeds"])
    projections = int(pcfg["projections"])
    averages = []
    for n in rungs:
        dists = []
        for k in range(n_seeds):
            small = integrate(model, init, None, 0.0, n, cfg["seed"] + k)
            big = integrate(model, init, None, 0.0, 4 * n, cfg["seed"] + 1000 + k)
            dists.append(
                wasserstein2(
                    small.law(), big.law(), mode="sliced", projections=projections, seed=k
                )
            )
        averages.append(float(np.mean(dists)))
    ok = all(a > b for a, b in zip(averages, averages[1:]))
    return {"pass": bool(ok), "rungs": list(rungs), "avg_distances": averages}


def _min_assignment_cost(cost: np.ndarray) -> float:
    """min over permutations p of sum_i cost[i, p[i]] / n, by enumeration:
    criterion 7's brute-force oracle.

    All n! sums are formed at once from one gather, whose row i holds
    cost[i, p[i]] for every p.  The rows are added one at a time, left to
    right, the order of the builtin sum over one permutation for any n;
    numpy's sum along 8 or more terms would add them pairwise.
    """
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    sums = functools.reduce(np.add, cost[np.arange(n)[:, None], perms.T])
    return float((sums / n).min())


def run_wasserstein(cfg, out_dir):
    wcfg = cfg["wasserstein"]
    n_instances = int(wcfg["n_instances"])
    n_triples = int(wcfg["n_triples"])
    max_atoms = int(wcfg["max_atoms"])
    grid = TimeGrid(1.0, 5)
    rng = np.random.default_rng(cfg["seed"])

    def brute(mu, nu):
        n = mu.n_atoms
        cost = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                cost[i, j] = sup_norm(PathGrid(grid, mu.atoms[i] - nu.atoms[j])) ** 2
        return math.sqrt(_min_assignment_cost(cost))

    def one_instance(k):
        r = np.random.default_rng(cfg["seed"] + k)
        n = int(r.integers(2, max_atoms + 1))
        mu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        nu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        return abs(wasserstein2(mu, nu) - brute(mu, nu))

    gaps = [one_instance(k) for k in range(n_instances)]
    max_gap = float(max(gaps))

    axiom_violation = 0.0
    for _ in range(n_triples):
        n = int(rng.integers(2, 7))
        trip = [EmpiricalPathMeasure(grid, rng.normal(size=(n, 6, 2)), None) for _ in range(3)]
        dxy = wasserstein2(trip[0], trip[1])
        dyx = wasserstein2(trip[1], trip[0])
        dxz = wasserstein2(trip[0], trip[2])
        dzy = wasserstein2(trip[2], trip[1])
        axiom_violation = max(
            axiom_violation, abs(dxy - dyx), dxy - (dxz + dzy)
        )
    ok = max_gap <= 1e-10 and axiom_violation <= 1e-10
    return {
        "pass": bool(ok),
        "max_bruteforce_gap": max_gap,
        "max_axiom_violation": float(axiom_violation),
        "instances": n_instances,
        "triples": n_triples,
    }


def run_ito(cfg, out_dir):
    icfg = cfg["ito"]
    grid = build_grid(cfg)
    t = float(icfg["t"])
    s = float(icfg["s"])
    if grid.node(s) <= grid.node(t):
        raise ConfigurationError(f"config key 'ito.s' must lie on a later grid node than ito.t = {t}, got {s}")
    dt_coeff = float(icfg["dt_coeff"])
    n = cfg["particles"]
    n_batches = 8  # standard-error batches; each needs at least one particle
    if n < n_batches:
        raise ConfigurationError(f"config key 'particles' must be >= {n_batches} for the Ito check, got {n}")
    zoo = calculus.standard_zoo(1)
    tags = icfg["functionals"]
    unknown = [tag for tag in tags if not isinstance(tag, str) or tag not in zoo]
    if unknown:
        raise ConfigurationError(
            f"config key 'ito.functionals' has unknown entries {unknown}; known: {sorted(zoo)}"
        )
    unfit = [tag for tag in tags if not (zoo[tag].has_analytic and zoo[tag].differentiable)]
    if unfit:
        raise ConfigurationError(
            f"config key 'ito.functionals' lists {unfit}, which have no analytic derivatives "
            "for the Ito check"
        )
    drives = [
        calculus.const_drift_spec(grid, [0.7]),
        calculus.const_diffusion_spec(grid, 0.5),
        calculus.drift_diffusion_spec(grid, [0.4], 0.3),
        calculus.linear_drift_diffusion_spec(grid, 1.0, 0.3),
    ]
    phis = [zoo[tag] for tag in tags]
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    # the four drives and the A*-variant run from one seed in d = 1: one
    # scope draws their block, and the drives share one initial sample
    init = InitialLaw.from_values(gaussian_initial(0.0, 0.5).sample(cfg["seed"], n, grid, 1))
    common = dict(t=t, s=s, n_particles=n, seed=cfg["seed"], dt_coeff=dt_coeff, n_batches=n_batches)
    with draw_scope():
        # one simulated ensemble per drive checks every functional
        per_drive = [calculus.ito_verify(phis, drive, init, **common) for drive in drives]
        # A*-variant on the OU model with the linear functional
        rep = calculus.ito_verify(zoo["linear_mean"], model, constant_initial([2.0]), **common)
    # reports in tag-major order: every drive for the first functional, then the next
    reports = [per_drive[i][k] for k in range(len(phis)) for i in range(len(drives))]
    reports.append(rep)
    ok = all(r.passed for r in reports)
    return {"pass": bool(ok), "checks": [check_block(r) for r in reports]}


def run_deriv(cfg, out_dir):
    eps = float(cfg["deriv"]["eps"])
    n_atoms = int(cfg["deriv"]["n_atoms"])
    grid = TimeGrid(1.0, 20)
    rng = np.random.default_rng(cfg["seed"])
    mu = EmpiricalPathMeasure(grid, rng.normal(size=(n_atoms, 21, 2)), None)
    zoo = calculus.standard_zoo(2)
    t = 0.5
    out = {}
    for tag in ("linear_mean", "mean_squared", "quadratic_form"):
        phi = zoo[tag]
        analytic = phi.dmu_field(t, mu)
        fd = calculus.measure_derivative_field(phi, t, mu, eps=eps)
        rich = calculus.measure_derivative_field(phi, t, mu, eps=eps, richardson=True)
        out[tag] = {
            "fd_error": float(np.abs(fd - analytic).max()),
            "richardson_error": float(np.abs(rich - analytic).max()),
        }
    max_fd = max(v["fd_error"] for v in out.values())
    max_rich = max(v["richardson_error"] for v in out.values())

    # representation-independence: equal functionals share all derivatives
    small = EmpiricalPathMeasure(grid, rng.normal(size=(4, 21, 2)), None)
    instances = [(0.3, small), (0.7, small)]
    h = np.array([1.0, 0.0])
    cons_square = calculus.consistency_check(
        calculus.mean_squared(h), calculus.mean_squared_double(h), instances
    )
    q = np.array([0.3, 0.45])
    cons_quad = calculus.consistency_check(
        calculus.quadratic_form(q), calculus.quadratic_form_dense(np.diag(q)), instances
    )
    ok = max_fd <= eps and max_rich < max_fd and cons_square.ok and cons_quad.ok
    return {
        "pass": bool(ok),
        "eps": eps,
        "errors": out,
        "max_fd": max_fd,
        "max_richardson": max_rich,
        "consistency": {
            "mean_squared_two_forms": cons_square.ok,
            "quadratic_diag_vs_dense": cons_quad.ok,
        },
    }


def run_dpp(cfg, out_dir):
    grid = build_grid(cfg)
    model = models.build_model("quadratic_terminal", grid, a=-1.0, s0=0.5)
    init = build_initial(cfg)
    t0 = float(cfg["dpp"]["t0"])
    splits = [float(s) for s in cfg["dpp"]["split_times"]]
    if any(s < t0 for s in splits):
        raise ConfigurationError(
            f"config key 'dpp.t0' ({t0}) must not be later than a split time, got {splits}"
        )
    reports = dpp_check(model, init, None, t0, splits, cfg["particles"], cfg["seed"])
    ok = all(r.passed for r in reports)
    return {"pass": bool(ok), "checks": [check_block(r) for r in reports]}


def run_law(cfg, out_dir):
    grid = build_grid(cfg)
    model = models.build_model("quadratic_terminal", grid, a=-1.0, s0=0.5)
    n = int(cfg["law"]["n_particles"])
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    families = [[build_policy(p, "law.families") for p in fam] for fam in cfg["law"]["families"]]
    rep = law_invariance_check(
        model, init_a, init_b, families, 0.0, n, seeds=(cfg["seed"], cfg["seed"] + 77)
    )
    guard = law_invariance_check(
        model,
        gaussian_initial(0.0, 1.0),
        gaussian_initial(0.5, 1.0),
        [[None]],
        0.0,
        min(n, 512),
        seeds=(cfg["seed"] + 1, cfg["seed"] + 2),
    )
    ok = rep.status == "pass" and guard.status == "inconclusive"
    law_check = check_block(rep)
    per_family = law_check.pop("per_family")  # reported beside the block
    return {
        "pass": bool(ok),
        "law_check": law_check,
        "per_family": per_family,
        "guard_rail_status": guard.status,
    }


def run_hjb(cfg, out_dir):
    grid = build_grid(cfg)
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = _linear_value_model(grid, a, beta, s0, c, q)
    candidate = _feynman_kac_candidate(grid, a, beta, c, q)
    wrong = _feynman_kac_candidate(grid, a, beta, c, q, scale=2.0)
    times = [float(t) for t in cfg["hjb"]["times"]]
    rng = np.random.default_rng(cfg["seed"])
    mu = EmpiricalPathMeasure(grid, rng.normal(size=(6, grid.steps + 1, 1)), None)

    # the closed-form candidate solves the equation, its doubled copy must
    # not (negative control)
    checks = []
    ok = True
    for t in times:
        rep = hjb_residual(candidate, model, t, mu)
        rep_wrong = hjb_residual(wrong, model, t, mu)
        good = (
            abs(rep.residual) <= 1e-10
            and abs(rep_wrong.residual) > 1e-3
            and rep.terminal_gap <= 1e-10
        )
        ok = ok and good
        checks.append(
            {
                "t": t,
                "residual": rep.residual,
                "terminal_gap": rep.terminal_gap,
                "wrong_candidate_residual": rep_wrong.residual,
                "pass": bool(good),
            }
        )
    return {"pass": bool(ok), "checks": checks}


def run_hamiltonian(cfg, out_dir):
    hcfg = cfg["hamiltonian"]
    n_instances = int(hcfg["n_instances"])
    max_atoms = int(hcfg["max_atoms"])
    max_actions = int(hcfg["max_actions"])
    if max_actions ** min(max_atoms, 64) > ENUMERATION_CAP:  # 2**64 is past any cap
        raise ConfigurationError(
            f"config key 'hamiltonian.max_atoms' gives {max_actions}**{max_atoms} maps, above {ENUMERATION_CAP}"
        )
    grid = TimeGrid(1.0, 4)
    mismatches = 0
    for k_inst in range(n_instances):
        r = np.random.default_rng(cfg["seed"] + k_inst)
        k = int(r.integers(1, max_atoms + 1))
        q = int(r.integers(1, max_actions + 1))
        w = r.uniform(0.2, 1.0, k)
        w /= w.sum()
        mu = EmpiricalPathMeasure(grid, r.normal(size=(k, 5, 1)), w)
        actions = FiniteActionSet(r.normal(size=(q, 1)))
        table = r.normal(size=(k, q))

        def F_fn(xs, u, nu, table=table, actions=actions):
            l = np.argmin(np.abs(actions.points[None, :, 0] - u[:, :1]), axis=1)
            return table[np.arange(xs.n_atoms), l]

        F = HamiltonianIntegrand(F_fn, tag="table")
        if hamiltonian_sup_finite(F, mu, actions) != hamiltonian_sup_finite(F, mu, actions, form="maps"):
            mismatches += 1

    # randomized >= deterministic with a strict gap on the W2-penalty example
    mu1 = EmpiricalPathMeasure(grid, np.zeros((1, 5, 1)), None)
    actions = FiniteActionSet([[0.0], [0.5], [1.0]])
    uniform = EmpiricalControlMeasure(actions.points)

    def F_pen(xs, u, nu):
        if nu is None:
            nu = EmpiricalControlMeasure(u)
        return np.full(xs.n_atoms, -wasserstein2_controls(nu, uniform))

    F = HamiltonianIntegrand(F_pen, nu_dependent=True, tag="-W2")
    rand_val = hamiltonian_sup_randomized(F, mu1, actions)
    det_best = max(F(mu1, u[None])[0] for u in actions.points)
    strict = rand_val > det_best + 1e-6
    ok = mismatches == 0 and strict
    return {
        "pass": bool(ok),
        "instances": n_instances,
        "form_mismatches": mismatches,
        "randomized_value": float(rand_val),
        "deterministic_value": float(det_best),
    }


def _linear_value_model(grid, a, beta, s0, c, q):
    return ModelSpec(
        grid=grid,
        A=SpectralOperator([a]),
        drift=lambda t, xs, mu, u, nu: np.full((xs.n, 1), beta),
        diffusion=models._constant_diffusion(s0, 1),
        running_cost=lambda t, xs, mu, u, nu: c * xs.values_now[:, 0],
        terminal_cost=lambda xs, mu: q * xs.values_now[:, 0],
        lipschitz=max(abs(beta), abs(s0), 1e-12),
        actions=FiniteActionSet([[0.0]]),
        tag="linear_value",
    )


def _feynman_kac_candidate(grid, a, beta, c, q, scale=1.0):
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
            out.append(scale * (beta * (-(q + c / a) * e + c / a) - (a * q + c) * e * m))
        return np.array(out)

    return CylindricalFunctional(
        tag=f"feynman_kac(x{scale})",
        eval_fn=ev,
        dt_fn=dt_fn,
        dmu_fn=lambda run: np.array([[[scale * kappa1(t)]] for t in run.ts.tolist()]),
        dxdmu_fn=lambda run: np.zeros((1, 1)),
    )


def _run_investment(cfg):
    n_grid = 2001
    worst_grid_excess = 0.0
    # per-coordinate data of every instance, for one projected-gradient run
    parts = []
    for k_inst in range(100):
        r = np.random.default_rng(cfg["seed"] + 31 * k_inst)
        m = int(r.integers(1, 4))
        p = r.normal(size=m)
        a2 = r.normal(size=m)
        c_diag = r.uniform(0.5, 2.0, m)
        m_diag = r.uniform(0.5, 2.0, m)
        t = float(r.uniform(0.0, 1.0))
        rr = float(r.uniform(0.0, 0.2))
        lo, hi = -2.0 * np.ones(m), 2.0 * np.ones(m)
        res = investment_hamiltonian_closed_form(
            p,
            t,
            rr,
            a2,
            SpectralOperator(c_diag),
            SpectralOperator(m_diag),
            BoxActionSet(lo, hi),
        )
        disc = math.exp(-rr * t)
        u_grid = np.empty(m)
        for k in range(m):
            g = np.linspace(lo[k], hi[k], n_grid)
            vals = c_diag[k] * g * p[k] - disc * (a2[k] * g + m_diag[k] * g**2)
            u_grid[k] = g[np.argmax(vals)]
        v_grid = float(
            np.dot(c_diag * u_grid, p) - disc * (np.dot(a2, u_grid) + np.dot(m_diag * u_grid, u_grid))
        )
        du = (hi[0] - lo[0]) / (n_grid - 1)
        bound = float((disc * m_diag).sum()) * (du / 2) ** 2
        worst_grid_excess = max(worst_grid_excess, abs(res.value - v_grid) - bound)
        step = 1.0 / (4.0 * disc * m_diag.max())
        parts.append((p, a2, c_diag, m_diag, np.full(m, disc), np.full(m, step), res.u_star))
    p, a2, c_diag, m_diag, disc, step, u_star = (np.concatenate(col) for col in zip(*parts))
    # projected gradient on the box [-2, 2]^m of every instance at once; each
    # update is elementwise, so every coordinate follows its own instance's run
    u = np.zeros_like(p)
    for _ in range(4000):
        grad = c_diag * p - disc * (a2 + 2.0 * m_diag * u)
        u = np.clip(u + step * grad, -2.0, 2.0)
    worst_pg = float(np.abs(u - u_star).max())
    ok = worst_grid_excess <= 0.0 and worst_pg <= 1e-8
    return {
        "pass": bool(ok),
        "worst_grid_excess": worst_grid_excess,
        "worst_projected_gradient_gap": worst_pg,
    }


# ---------------------------------------------------------------------------
# Suite criteria that have no subcommand of their own.


def ou_oracle(cfg, out_dir):
    """1. OU oracle: terminal mean and variance within 3 SE of the closed form."""
    grid, seed, n = build_grid(cfg), cfg["seed"], cfg["particles"]
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    ens = integrate(model, constant_initial([0.0]), None, 0.0, n, seed)
    xt = ens.values[:, -1, 0]
    var_theory = 0.25 * (1 - math.exp(-2.0)) / 2.0
    se_mean = xt.std(ddof=1) / math.sqrt(n)
    se_var = xt.var(ddof=1) * math.sqrt(2.0 / (n - 1))
    ou_ok = (
        abs(xt.mean()) <= 3 * se_mean
        and abs(xt.var(ddof=1) - var_theory) <= 3 * se_var
    )
    return {
        "pass": bool(ou_ok),
        "mean": float(xt.mean()),
        "var": float(xt.var(ddof=1)),
        "var_theory": var_theory,
    }


def meanfield_oracle(cfg, out_dir):
    """2. Mean-field coupling oracle: mean 0 throughout, each particle x0 e^{-t}."""
    grid, seed = build_grid(cfg), cfg["seed"]
    mf_model = models.make_meanfield_ou(grid, theta=1.0, s0=0.0)
    mf = integrate(mf_model, two_point_initial(-1.0, 1.0), None, 0.0, 64, seed)
    means = np.abs(mf.values.mean(axis=0)[:, 0]).max()
    target = mf.values[:, 0, 0][:, None] * np.exp(-grid.times)[None, :]
    decay_gap = np.abs(mf.values[:, :, 0] - target).max()
    mf_ok = means < 1e-12 and decay_gap < 1.0 * grid.dt
    return {
        "pass": bool(mf_ok),
        "max_mean_drift": float(means),
        "max_decay_gap": float(decay_gap),
    }


def weak_order(cfg, out_dir):
    """3. Weak order one: halving dt on shared noise halves the mean error."""
    grid, seed, n = build_grid(cfg), cfg["seed"], cfg["particles"]
    fine_steps = grid.steps
    if fine_steps % 8:
        raise ConfigurationError(
            f"config key 'grid.steps' must be a multiple of 8 for the suite, whose weak-order "
            f"criterion coarsens the grid by 8, 4 and 2; got {fine_steps}"
        )
    factors = (8, 4, 2)
    # the fine block's Brownian paths on each rung's grid, drawn in one pass
    rungs = refine_increments(seed + 3, n, fine_steps, 1, grid.T / fine_steps, factors)
    errors = []
    for factor in factors:
        steps = fine_steps // factor
        sub_grid = TimeGrid(grid.T, steps)
        sub_model = models.make_ou_drift(sub_grid, kappa=1.0, s0=0.1)
        coarse = rungs.pop(0)
        e = integrate(sub_model, constant_initial([4.0]), None, 0.0, n, seed + 3, noise=coarse)
        errors.append(abs(e.values[:, -1, 0].mean() - 4.0 * math.exp(-1.0)))
        del coarse, e  # the next rung runs without this one's blocks alive
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    weak_ok = all(0.3 <= r <= 0.7 for r in ratios)
    return {"pass": bool(weak_ok), "errors": errors, "ratios": ratios}


# Model tag -> (params, policy) for criterion 5, one entry per built-in model.
FLOW_MODELS = {
    "frozen": ({}, None),
    "ou": ({"a": -1.0, "s0": 0.5}, None),
    "ou_drift": ({"kappa": 1.0, "s0": 0.3}, None),
    "meanfield_ou": ({"theta": 1.0, "s0": 0.2}, None),
    "meanfield_growth": ({"theta": 1.0, "s0": 0.1}, None),
    "controlled_linear": ({"c": 1.0, "s0": 0.3}, constant_policy([0.5])),
    "quadratic_terminal": ({"a": -1.0, "s0": 0.5}, None),
}


def flow_property(cfg, out_dir):
    """5. Flow property: restarting at T/2 from the stopped solution reproduces
    every particle exactly, on every built-in model."""
    grid, seed = build_grid(cfg), cfg["seed"]
    flow_gaps = {}
    for tag, (params, policy) in FLOW_MODELS.items():
        rep = flow_restart_check(
            models.build_model(tag, grid, **params),
            two_point_initial(-1.0, 1.0), policy, 0.0, grid.T / 2, 32, seed,
        )
        flow_gaps[tag] = rep["max_particle_gap"]
    flow_ok = all(g == 0.0 for g in flow_gaps.values())
    return {"pass": bool(flow_ok), "gaps": flow_gaps}


def nonanticipativity(cfg, out_dir):
    """6. Non-anticipativity: the initial path after t0 cannot change the solution."""
    grid, seed = build_grid(cfg), cfg["seed"]
    na_model = models.make_ou(grid, a=-1.0, s0=0.5)
    na_init = ramp_initial(1.0)
    t0 = 0.3
    ens_a = integrate(na_model, na_init, None, t0, 32, seed)
    ens_b = integrate(na_model, stopped_initial(na_init, t0), None, t0, 32, seed)
    na_ok = np.array_equal(ens_a.values, ens_b.values)
    return {"pass": bool(na_ok)}


# criterion 4's model, whatever the config's: the OU closed form is its oracle
SUITE_YOSIDA_MODEL = {"tag": "ou", "params": {"a": -1.0, "s0": 0.5}}

# Report key -> criterion, in criterion order.  Lambdas adapt a runner and look
# it up by its module-level name when called.
SUITE = {
    "ou_oracle": ou_oracle,
    "meanfield_oracle": meanfield_oracle,
    "weak_order": weak_order,
    "yosida": lambda cfg, out_dir: run_yosida(  # 4. Yosida convergence, on the
        # OU model above, from a constant start
        {**cfg, "model": SUITE_YOSIDA_MODEL, "initial": {"kind": "constant", "value": [1.0]}},
        out_dir,
    ),
    "flow_property": flow_property,
    "nonanticipativity": nonanticipativity,
    "wasserstein": run_wasserstein,  # 7. exact W2 vs brute force, metric axioms
    "deriv": run_deriv,  # 8. discrete measure derivative
    "ito": run_ito,  # 9. functional Ito formula battery
    "dpp": lambda cfg, out_dir: run_dpp(  # 10. DPP tower
        {**cfg, "initial": {"kind": "constant", "value": [0.5]}}, out_dir
    ),
    "law": run_law,  # 11. law invariance
    "hamiltonian": run_hamiltonian,  # 12. Hamiltonian forms, randomized
    "investment": lambda cfg, out_dir: _run_investment(cfg),  # 13. investment
    "hjb_residual": run_hjb,  # HJB residual of the closed-form candidate
}


def run_suite(cfg, out_dir):
    """The full acceptance battery: every criterion of SUITE, in order, in one
    `draw_scope`, so that criteria in a row that draw the block of one
    (seed, grid) key draw it once; nothing drawn outlives the run."""
    with draw_scope():
        results = {key: criterion(cfg, out_dir) for key, criterion in SUITE.items()}
    results["pass"] = all(block["pass"] for block in results.values())
    return results
