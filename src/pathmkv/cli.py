"""Experiment orchestration: config ingestion, subcommand dispatch, reports.

The config is a JSON file validated against the schema below; unknown keys
are rejected with their dotted path.  All times are in model time units, the
horizon T and every split time included.  Each subcommand writes report.json
(and any CSV exports) into the output directory and exits 0 iff every pass
flag is true; schema violations exit 2 and numeric blow-ups exit 3.  All
randomness flows from the single root seed, so rerunning a config reproduces
every numeric field bit for bit (the wall_time_s field is the one exception).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, calculus, models
from .control import (
    FiniteActionSet,
    constant_policy,
    dpp_check,
    law_invariance_check,
)
from .errors import ConfigurationError, IntegrationBlowupError, NonConvergenceError
from .hilbert import HilbertVec
from .hjb import (
    HamiltonianIntegrand,
    hamiltonian_sup_finite,
    hamiltonian_sup_randomized,
    hjb_residual,
)
from .measure import (
    EmpiricalControlMeasure,
    EmpiricalPathMeasure,
    wasserstein2,
    wasserstein2_controls,
)
from .paths import TimeGrid
from .rng import brownian_increments, refine_increments
from .sde import (
    InitialLaw,
    constant_initial,
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

SUBCOMMANDS = [
    "simulate",
    "picard",
    "yosida-converge",
    "particles-converge",
    "wasserstein",
    "ito-check",
    "deriv-check",
    "dpp-check",
    "law-check",
    "hjb-residual",
    "hamiltonian-forms",
    "suite",
]

# Schema: key -> (type or nested dict, required).  Times are in model time
# units; seeds are unsigned integers; particle counts are dimensionless.
CONFIG_SCHEMA = {
    "model": (
        {"tag": (str, True), "params": (dict, False)},
        False,
    ),
    "grid": ({"T": ((int, float), True), "steps": (int, True)}, False),
    "particles": (int, False),
    "seed": (int, False),
    "initial": (
        {
            "kind": (str, True),
            "value": (list, False),
            "mean": ((int, float), False),
            "std": ((int, float), False),
            "a": ((int, float), False),
            "b": ((int, float), False),
            "scale": ((int, float), False),
        },
        False,
    ),
    "simulate": ({"t0": ((int, float), False), "export_paths": (bool, False)}, False),
    "picard": (
        {
            "tol": ((int, float), False),
            "max_iter": (int, False),
            "window": ((int, float, type(None)), False),
        },
        False,
    ),
    "yosida": ({"ladder": (list, False)}, False),
    "particles_converge": (
        {"rungs": (list, False), "n_seeds": (int, False), "projections": (int, False)},
        False,
    ),
    "wasserstein": (
        {
            "n_instances": (int, False),
            "n_triples": (int, False),
            "max_atoms": (int, False),
        },
        False,
    ),
    "ito": (
        {
            "t": ((int, float), False),
            "s": ((int, float), False),
            "dt_coeff": ((int, float), False),
            "functionals": (list, False),
        },
        False,
    ),
    "deriv": ({"eps": ((int, float), False), "n_atoms": (int, False)}, False),
    "dpp": (
        {
            "t0": ((int, float), False),
            "split_times": (list, False),
            "family": (list, False),
        },
        False,
    ),
    "law": ({"n_particles": (int, False), "families": (list, False)}, False),
    "hjb": ({"times": (list, False), "candidate": (str, False)}, False),
    "hamiltonian": (
        {"n_instances": (int, False), "max_atoms": (int, False), "max_actions": (int, False)},
        False,
    ),
}

# Lower bounds on numeric keys, by dotted path.
CONFIG_MINIMA = {
    "particles": 1,
    "grid.steps": 1,
    "particles_converge.projections": 1,
    "particles_converge.n_seeds": 1,
}


def validate_config(cfg, schema=None, path="") -> None:
    schema = CONFIG_SCHEMA if schema is None else schema
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config{path or ' root'} must be an object")
    for key, value in cfg.items():
        here = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigurationError(f"unknown config key {here!r}")
        spec, _required = schema[key]
        if isinstance(spec, dict):
            validate_config(value, spec, here)
        elif not isinstance(value, spec) or (
            # bool is an int subclass; it passes only where the schema names it
            isinstance(value, bool) and bool not in (spec if isinstance(spec, tuple) else (spec,))
        ):
            raise ConfigurationError(
                f"config key {here!r} has type {type(value).__name__}, expected {spec}"
            )
        elif here in CONFIG_MINIMA and value < CONFIG_MINIMA[here]:
            raise ConfigurationError(f"config key {here!r} must be >= {CONFIG_MINIMA[here]}, got {value}")
    for key, (spec, required) in schema.items():
        if required and key not in cfg:
            raise ConfigurationError(f"missing required config key {path + '.' + key if path else key!r}")


DEFAULT_CONFIG = {
    "model": {"tag": "ou", "params": {"a": -1.0, "s0": 0.5}},
    "grid": {"T": 1.0, "steps": 1000},
    "particles": 4000,
    "seed": 20240915,
    "initial": {"kind": "constant", "value": [0.0]},
}


def load_config(path: str | None) -> dict:
    cfg = dict(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config is not valid JSON: {exc}") from exc
        except OSError as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        validate_config(user)
        cfg.update(user)
    validate_config(cfg)
    return cfg


def build_grid(cfg) -> TimeGrid:
    g = cfg["grid"]
    return TimeGrid(float(g["T"]), int(g["steps"]))


def build_model(cfg, grid=None):
    grid = build_grid(cfg) if grid is None else grid
    spec = cfg.get("model", DEFAULT_CONFIG["model"])
    return models.build_model(spec["tag"], grid, **spec.get("params", {}))


def build_initial(cfg) -> InitialLaw:
    spec = cfg.get("initial", DEFAULT_CONFIG["initial"])
    kind = spec["kind"]
    if kind == "constant":
        return constant_initial(spec.get("value", [0.0]))
    if kind == "two_point":
        return two_point_initial(spec.get("a", -1.0), spec.get("b", 1.0))
    if kind == "gaussian":
        return gaussian_initial(spec.get("mean", 0.0), spec.get("std", 1.0))
    if kind == "ramp":
        return ramp_initial(spec.get("scale", 1.0))
    raise ConfigurationError(f"unknown initial law kind {kind!r}")


def deterministic_map(fn, items, threads=1):
    """Order-preserving map; thread count cannot change the results."""
    if threads <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def build_policy(spec):
    """Policy from a config entry: {"kind": "constant", "u": [..]} or
    {"kind": "uncontrolled"}."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigurationError(f"policy spec must be an object with a kind, got {spec!r}")
    kind = spec["kind"]
    if kind == "uncontrolled":
        return None
    if kind == "constant":
        if "u" not in spec:
            raise ConfigurationError("constant policy needs a 'u' action vector")
        return constant_policy(spec["u"])
    raise ConfigurationError(f"unknown policy kind {kind!r}")


def build_families(specs):
    return [[build_policy(p) for p in fam] for fam in specs]


# ---------------------------------------------------------------------------
# Subcommand runners.  Each returns a JSON-ready dict with a "pass" flag.


def run_simulate(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    t0 = float(cfg.get("simulate", {}).get("t0", 0.0))
    ens = integrate(model, init, None, t0, cfg["particles"], cfg["seed"])
    if cfg.get("simulate", {}).get("export_paths", False):
        ens.export(os.path.join(out_dir, "paths"))
    return {"pass": True, "moments": ens.summary_moments(), "model": model.tag}


def run_picard(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    pcfg = cfg.get("picard", {})
    res = integrate_picard(
        model,
        init,
        None,
        0.0,
        cfg["particles"],
        cfg["seed"],
        tol=float(pcfg.get("tol", 1e-10)),
        max_iter=int(pcfg.get("max_iter", 40)),
        window=pcfg.get("window"),
    )
    direct = integrate(model, init, None, 0.0, cfg["particles"], cfg["seed"])
    agreement = s2_distance(res.ensemble, direct)
    ok = agreement <= float(pcfg.get("tol", 1e-10)) + 10.0 * grid.dt
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


def run_yosida(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    ladder = cfg.get("yosida", {}).get("ladder", [2, 8, 32])
    base = integrate(model, init, None, 0.0, cfg["particles"], cfg["seed"])
    dists = []
    for n in ladder:
        yos = integrate_yosida(model, n, init, None, 0.0, cfg["particles"], cfg["seed"])
        dists.append(s2_distance(yos, base))
    decreasing = all(a > b for a, b in zip(dists, dists[1:]))
    params = cfg.get("model", {}).get("params", {})
    x0 = float(np.linalg.norm(cfg.get("initial", {}).get("value", [0.0])))
    oracle = yosida_oracle_gap(
        float(params.get("a", -1.0)), ladder[-1], grid, float(params.get("s0", 0.5)), x0
    )
    within_oracle = dists[-1] <= 10.0 * oracle if oracle > 0 else True
    return {
        "pass": bool(decreasing and within_oracle),
        "ladder": list(ladder),
        "distances": dists,
        "oracle_bound_x10": 10.0 * oracle,
    }


def run_particles_converge(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = build_model(cfg, grid)
    init = build_initial(cfg)
    pcfg = cfg.get("particles_converge", {})
    rungs = pcfg.get("rungs", [250, 1000])
    n_seeds = int(pcfg.get("n_seeds", 4))
    projections = int(pcfg.get("projections", 128))
    averages = []
    for n in rungs:
        dists = []
        for k in range(n_seeds):
            small = integrate(model, init, None, 0.0, int(n), cfg["seed"] + k)
            big = integrate(model, init, None, 0.0, 4 * int(n), cfg["seed"] + 1000 + k)
            dists.append(
                wasserstein2(
                    small.law(), big.law(), mode="sliced", projections=projections, seed=k
                )
            )
        averages.append(float(np.mean(dists)))
    ok = all(a > b for a, b in zip(averages, averages[1:]))
    return {"pass": bool(ok), "rungs": list(rungs), "avg_distances": averages}


def run_wasserstein(cfg, out_dir, threads):
    import itertools

    from .paths import PathGrid, sup_norm

    wcfg = cfg.get("wasserstein", {})
    n_instances = int(wcfg.get("n_instances", 100))
    n_triples = int(wcfg.get("n_triples", 1000))
    max_atoms = int(wcfg.get("max_atoms", 6))
    grid = TimeGrid(1.0, 5)
    rng = np.random.default_rng(cfg["seed"])

    def brute(mu, nu):
        n = mu.n_atoms
        cost = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                cost[i, j] = sup_norm(PathGrid(grid, mu.atoms[i] - nu.atoms[j])) ** 2
        best = min(
            sum(cost[i, p[i]] for i in range(n)) / n
            for p in itertools.permutations(range(n))
        )
        return math.sqrt(best)

    def one_instance(k):
        r = np.random.default_rng(cfg["seed"] + k)
        n = int(r.integers(2, max_atoms + 1))
        mu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        nu = EmpiricalPathMeasure(grid, r.normal(size=(n, 6, 2)), None)
        return abs(wasserstein2(mu, nu) - brute(mu, nu))

    gaps = deterministic_map(one_instance, range(n_instances), threads)
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


def _ito_battery(cfg, threads):
    icfg = cfg.get("ito", {})
    grid = build_grid(cfg)
    t = float(icfg.get("t", 0.0))
    s = float(icfg.get("s", grid.T))
    dt_coeff = float(icfg.get("dt_coeff", 10.0))
    n = cfg["particles"]
    zoo = calculus.standard_zoo(1)
    tags = icfg.get("functionals", ["linear_mean", "mean_squared", "quadratic_form"])
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
        calculus.const_drift_spec([0.7]),
        calculus.const_diffusion_spec(0.5),
        calculus.drift_diffusion_spec([0.4], 0.3),
        calculus.linear_drift_diffusion_spec(1.0, 0.3),
    ]
    init = gaussian_initial(0.0, 0.5)
    phis = [zoo[tag] for tag in tags]

    # one simulated ensemble per drive checks every functional; the per-node
    # quadrature is a Python loop over small arrays, so the drives run
    # serially regardless of --threads
    per_drive = [
        calculus.ito_verify(
            phis, grid, init, t=t, s=s, n_particles=n, seed=cfg["seed"],
            process=drive, d=1, dt_coeff=dt_coeff,
        )
        for drive in drives
    ]
    # reports in tag-major order: every drive for the first functional, then the next
    reports = [per_drive[i][k] for k in range(len(phis)) for i in range(len(drives))]
    # A*-variant on the OU model with the linear functional
    model = models.make_ou(grid, a=-1.0, s0=0.5)
    rep = calculus.ito_verify(
        zoo["linear_mean"],
        grid,
        constant_initial([2.0]),
        t=t,
        s=s,
        n_particles=n,
        seed=cfg["seed"],
        model=model,
        dt_coeff=dt_coeff,
    )
    reports.append(rep)
    return reports


def run_ito(cfg, out_dir, threads):
    reports = _ito_battery(cfg, threads)
    ok = all(r.passed for r in reports)
    return {
        "pass": bool(ok),
        "checks": [json.loads(r.to_json()) for r in reports],
    }


def run_deriv(cfg, out_dir, threads):
    dcfg = cfg.get("deriv", {})
    eps = float(dcfg.get("eps", 1e-5))
    n_atoms = int(dcfg.get("n_atoms", 6))
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


def run_dpp(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = models.build_model("quadratic_terminal", grid, a=-1.0, s0=0.5)
    init = build_initial(cfg)
    dcfg = cfg.get("dpp", {})
    t0 = float(dcfg.get("t0", 0.0))
    splits = dcfg.get("split_times", [0.25, 0.5, 0.75])
    family = [build_policy(p) for p in dcfg.get("family", [])]
    reports = [
        dpp_check(model, init, family, t0, float(s), cfg["particles"], cfg["seed"])
        for s in splits
    ]
    ok = all(r.passed for r in reports)
    return {"pass": bool(ok), "checks": [json.loads(r.to_json()) for r in reports]}


def run_law(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model = models.build_model("quadratic_terminal", grid, a=-1.0, s0=0.5)
    lcfg = cfg.get("law", {})
    n = int(lcfg.get("n_particles", min(cfg["particles"], 2000)))
    init_a = two_point_mapped(-1.0, 1.0, flipped=False)
    init_b = two_point_mapped(-1.0, 1.0, flipped=True)
    if "families" in lcfg:
        families = build_families(lcfg["families"])
    else:
        families = [
            [None],
            [constant_policy([0.0])],
            [constant_policy([0.0]), constant_policy([0.5])],
            [constant_policy([0.25]), constant_policy([0.75])],
        ]
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
    return {
        "pass": bool(ok),
        "law_check": json.loads(rep.to_json()),
        "per_family": rep.per_family,
        "guard_rail_status": guard.status,
    }


def _candidate_zoo(grid):
    a, beta, s0, c, q = -1.0, 0.4, 0.3, 0.5, 1.0
    model = _linear_value_model(grid, a, beta, s0, c, q)
    return model, {
        "feynman_kac": _feynman_kac_candidate(grid, a, beta, c, q),
        "feynman_kac_x2": _feynman_kac_candidate(grid, a, beta, c, q, scale=2.0),
    }


def run_hjb(cfg, out_dir, threads):
    grid = build_grid(cfg)
    model, zoo = _candidate_zoo(grid)
    hcfg = cfg.get("hjb", {})
    times = hcfg.get("times", [0.0, 0.3, 0.7])
    actions = FiniteActionSet([[0.0]])
    rng = np.random.default_rng(cfg["seed"])
    mu = EmpiricalPathMeasure(grid, rng.normal(size=(6, grid.steps + 1, 1)), None)

    tag = hcfg.get("candidate")
    if tag is not None:
        # evaluation mode: report the chosen candidate's residuals, no verdict
        if tag not in zoo:
            raise ConfigurationError(
                f"unknown candidate tag {tag!r}; known: {sorted(zoo)}"
            )
        checks = []
        for t in times:
            rep = hjb_residual(zoo[tag], model, float(t), mu, actions)
            checks.append(json.loads(rep.to_json()) | {"t": float(t)})
        return {"pass": True, "candidate": tag, "checks": checks}

    # self-check mode: the closed-form candidate solves the equation, its
    # doubled copy must not (negative control)
    checks = []
    ok = True
    for t in times:
        rep = hjb_residual(zoo["feynman_kac"], model, float(t), mu, actions)
        rep_wrong = hjb_residual(zoo["feynman_kac_x2"], model, float(t), mu, actions)
        good = (
            abs(rep.residual) <= 1e-10
            and abs(rep_wrong.residual) > 1e-3
            and rep.terminal_gap <= 1e-10
        )
        ok = ok and good
        checks.append(
            {
                "t": float(t),
                "residual": rep.residual,
                "terminal_gap": rep.terminal_gap,
                "wrong_candidate_residual": rep_wrong.residual,
                "pass": bool(good),
            }
        )
    return {"pass": bool(ok), "checks": checks}


def run_hamiltonian(cfg, out_dir, threads):
    hcfg = cfg.get("hamiltonian", {})
    n_instances = int(hcfg.get("n_instances", 50))
    max_atoms = int(hcfg.get("max_atoms", 4))
    max_actions = int(hcfg.get("max_actions", 5))
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

        def F_fn(path, u, nu, table=table, mu=mu, actions=actions):
            i = int(np.argmin(np.abs(mu.atoms[:, 0, 0] - path.values[0, 0])))
            l = int(np.argmin(np.abs(actions.points[:, 0] - u[0])))
            return table[i, l]

        F = HamiltonianIntegrand(F_fn, tag="table")
        vals = [
            hamiltonian_sup_finite(F, mu, actions, form=f)
            for f in ("esssup", "maps", "mt")
        ]
        if not vals[0] == vals[1] == vals[2]:
            mismatches += 1

    # randomized >= deterministic with a strict gap on the W2-penalty example
    mu1 = EmpiricalPathMeasure(grid, np.zeros((1, 5, 1)), None)
    actions = FiniteActionSet([[0.0], [0.5], [1.0]])
    uniform = EmpiricalControlMeasure(actions.points)

    def F_pen(path, u, nu):
        if nu is None:
            nu = EmpiricalControlMeasure(np.atleast_2d(u))
        return -wasserstein2_controls(nu, uniform)

    F = HamiltonianIntegrand(F_pen, nu_dependent=True, tag="-W2")
    rand_val = hamiltonian_sup_randomized(F, mu1, actions)
    det_best = max(F_pen(None, np.array([u]), None) for u in actions.points[:, 0])
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
    from .hilbert import GENERATOR, SpaceSpec, SpectralOperator
    from .sde import ModelSpec

    space = SpaceSpec(1)
    return ModelSpec(
        space=space,
        grid=grid,
        A=SpectralOperator([a], kind=GENERATOR),
        drift=lambda t, xs, mu, u, nu: np.full((xs.n, 1), beta),
        diffusion=(lambda t, xs, mu, u, nu: np.full((xs.n, 1), s0)) if s0 else None,
        running_cost=lambda t, xs, mu, u, nu: c * xs.values_now[:, 0],
        terminal_cost=lambda xs, mu: q * xs.values_now[:, 0],
        lipschitz=max(abs(beta), abs(s0), 1e-12),
        tag="linear_value",
    )


def _feynman_kac_candidate(grid, a, beta, c, q, scale=1.0):
    from .calculus import CylindricalFunctional
    from .hjb import CandidateSolution

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

    def dt_fn(t, mu):
        m = float(mu.weights @ mu.values_at(t)[:, 0])
        e = math.exp(a * (T - t))
        return scale * (beta * (-(q + c / a) * e + c / a) - (a * q + c) * e * m)

    functional = CylindricalFunctional(
        tag=f"feynman_kac(x{scale})",
        eval_fn=ev,
        dt_fn=dt_fn,
        dmu_fn=lambda t, mu, xs: np.full((xs.shape[0], 1), scale * kappa1(t)),
        dxdmu_fn=lambda t, mu, xs: np.zeros((xs.shape[0], 1, 1)),
    )
    return CandidateSolution(functional)


def run_suite(cfg, out_dir, threads):
    """The full acceptance battery; each entry mirrors a numbered criterion."""
    results = {}
    grid = build_grid(cfg)
    seed = cfg["seed"]
    n = cfg["particles"]

    # 1. OU oracle
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
    results["ou_oracle"] = {
        "pass": bool(ou_ok),
        "mean": float(xt.mean()),
        "var": float(xt.var(ddof=1)),
        "var_theory": var_theory,
    }

    # 2. mean-field coupling oracle
    mf_model = models.make_meanfield_ou(grid, theta=1.0, s0=0.0)
    mf = integrate(mf_model, two_point_initial(-1.0, 1.0), None, 0.0, 64, seed)
    means = np.abs(mf.values.mean(axis=0)[:, 0]).max()
    target = mf.values[:, 0, 0][:, None] * np.exp(-grid.times)[None, :]
    decay_gap = np.abs(mf.values[:, :, 0] - target).max()
    mf_ok = means < 1e-12 and decay_gap < 1.0 * grid.dt
    results["meanfield_oracle"] = {
        "pass": bool(mf_ok),
        "max_mean_drift": float(means),
        "max_decay_gap": float(decay_gap),
    }

    # 3. weak order
    fine_steps = grid.steps
    noise_fine = brownian_increments(seed + 3, n, fine_steps, 1, grid.T / fine_steps)
    errors = []
    for factor in (8, 4, 2):
        steps = fine_steps // factor
        sub_grid = TimeGrid(grid.T, steps)
        sub_model = models.make_ou_drift(sub_grid, kappa=1.0, s0=0.1)
        coarse = refine_increments(noise_fine, factor)
        e = integrate(sub_model, constant_initial([4.0]), None, 0.0, n, seed + 3, noise=coarse)
        errors.append(abs(e.values[:, -1, 0].mean() - 4.0 * math.exp(-1.0)))
    ratios = [b / a for a, b in zip(errors, errors[1:])]
    weak_ok = all(0.3 <= r <= 0.7 for r in ratios)
    results["weak_order"] = {"pass": bool(weak_ok), "errors": errors, "ratios": ratios}

    # 4. Yosida convergence
    results["yosida"] = run_yosida(
        {**cfg, "initial": {"kind": "constant", "value": [1.0]}}, out_dir, threads
    )

    # 5. flow property on all built-in models
    flow_gaps = {}
    for tag, factory in (
        ("frozen", lambda: models.make_frozen(grid)),
        ("ou", lambda: models.make_ou(grid, a=-1.0, s0=0.5)),
        ("ou_drift", lambda: models.make_ou_drift(grid, kappa=1.0, s0=0.3)),
        ("meanfield_ou", lambda: models.make_meanfield_ou(grid, theta=1.0, s0=0.2)),
        ("meanfield_growth", lambda: models.make_meanfield_growth(grid, theta=1.0, s0=0.1)),
    ):
        rep = flow_restart_check(
            factory(), two_point_initial(-1.0, 1.0), None, 0.0, grid.T / 2, 32, seed
        )
        flow_gaps[tag] = rep["max_particle_gap"]
    flow_ok = all(g == 0.0 for g in flow_gaps.values())
    results["flow_property"] = {"pass": bool(flow_ok), "gaps": flow_gaps}

    # 6. non-anticipativity of the solution map
    na_model = models.make_ou(grid, a=-1.0, s0=0.5)
    na_init = ramp_initial(1.0)
    t0 = 0.3
    ens_a = integrate(na_model, na_init, None, t0, 32, seed)
    ens_b = integrate(na_model, stopped_initial(na_init, t0), None, t0, 32, seed)
    na_ok = np.array_equal(ens_a.values, ens_b.values)
    results["nonanticipativity"] = {"pass": bool(na_ok)}

    # 7. W2 exact vs brute force and metric axioms
    results["wasserstein"] = run_wasserstein(cfg, out_dir, threads)

    # 8. discrete measure derivative
    results["deriv"] = run_deriv(cfg, out_dir, threads)

    # 9. functional Ito formula battery
    results["ito"] = run_ito(cfg, out_dir, threads)

    # 10. DPP tower check
    results["dpp"] = run_dpp(
        {**cfg, "initial": {"kind": "constant", "value": [0.5]}}, out_dir, threads
    )

    # 11. law invariance
    results["law"] = run_law(cfg, out_dir, threads)

    # 12. Hamiltonian three forms + randomized
    results["hamiltonian"] = run_hamiltonian(cfg, out_dir, threads)

    # 13. investment Hamiltonian
    results["investment"] = _run_investment(cfg)

    # HJB residual tool on the built-in closed-form candidate
    results["hjb_residual"] = run_hjb(cfg, out_dir, threads)

    results["pass"] = all(
        block.get("pass", True)
        for name, block in results.items()
        if isinstance(block, dict)
    )
    return results


def _run_investment(cfg):
    from .control import BoxActionSet
    from .hilbert import SpectralOperator
    from .hjb import investment_hamiltonian_closed_form

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
            HilbertVec(p),
            t,
            rr,
            HilbertVec(np.zeros(m)),
            HilbertVec(a2),
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
        parts.append((p, a2, c_diag, m_diag, np.full(m, disc), np.full(m, step), res.u_star.coords))
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


RUNNERS = {
    "simulate": run_simulate,
    "picard": run_picard,
    "yosida-converge": run_yosida,
    "particles-converge": run_particles_converge,
    "wasserstein": run_wasserstein,
    "ito-check": run_ito,
    "deriv-check": run_deriv,
    "dpp-check": run_dpp,
    "law-check": run_law,
    "hjb-residual": run_hjb,
    "hamiltonian-forms": run_hamiltonian,
    "suite": run_suite,
}


def run(subcommand: str, config_path: str | None, out_dir: str = ".",
        seed: int | None = None, threads: int = 1) -> int:
    """Dispatch a subcommand; returns the process exit status."""
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg["seed"] = int(seed)
        if subcommand not in RUNNERS:
            raise ConfigurationError(
                f"unknown subcommand {subcommand!r}; known: {SUBCOMMANDS}"
            )
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        results = RUNNERS[subcommand](cfg, out_dir, threads)
    except IntegrationBlowupError as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return 3
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        results = {"pass": False, "error": str(exc), "gaps": exc.gaps}
    wall = time.perf_counter() - t0

    report = {
        "version": f"pathmkv-{__version__}",
        "subcommand": subcommand,
        "config": cfg,
        "results": results,
        "pass": bool(results.get("pass", True)),
        "wall_time_s": wall,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    status = "PASS" if report["pass"] else "FAIL"
    print(f"[{status}] {subcommand} (wall {wall:.2f}s) -> {out_dir}/report.json")
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pathmkv",
        description="simulation and verification toolkit for controlled "
        "path-dependent McKean-Vlasov SDEs",
    )
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", default=None, help="JSON experiment config")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads", type=int, default=1, help="worker threads (never changes results)"
    )
    args = parser.parse_args(argv)
    if args.threads < 1:
        print("config error: --threads must be >= 1", file=sys.stderr)
        return 2
    return run(args.subcommand, args.config, args.out, args.seed, args.threads)


if __name__ == "__main__":
    sys.exit(main())
