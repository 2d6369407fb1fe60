"""Output checks, each against a computation made here or a property the
method must have.  Every function returns a list of failure messages; an
empty list means the check passed.

The reference computations do not call pathmkv: the Brownian increments and
Gaussian initial values are regenerated from the counter-based addressing the
program documents (Philox keyed by [seed, (stream << 32) ^ particle]), and the
closed forms are derived here.  pathmkv is called only to evaluate symmetry
and the sliced/exact inequality, which compare the program with itself.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

STREAM_BROWNIAN = 0
STREAM_INITIAL = 1


def _generator(seed, stream, particle):
    key = np.array([seed, (stream << 32) ^ particle], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def brownian(seed: int, n: int, steps: int, dt: float) -> np.ndarray:
    """The 1-d N(0, dt) increments of particles 0..n-1, shape (n, steps)."""
    root = math.sqrt(dt)
    return np.stack(
        [root * _generator(seed, STREAM_BROWNIAN, i).standard_normal((steps, 1))[:, 0] for i in range(n)]
    )


def gaussian_starts(seed: int, n: int, mean: float, std: float) -> np.ndarray:
    """The 1-d constant initial values of a Gaussian initial law, shape (n,)."""
    return np.array(
        [mean + std * _generator(seed, STREAM_INITIAL, i).standard_normal(1)[0] for i in range(n)]
    )


def close(name, got, want, tol) -> list:
    if isinstance(got, (int, float)) and abs(got - want) <= tol:
        return []
    return [f"{name}: got {got!r}, want {want!r} within {tol:g}"]


def pass_flags(report, path="report") -> list:
    """Every `pass` flag anywhere in a report must be true."""
    bad = []
    if isinstance(report, dict):
        for key, val in report.items():
            here = f"{path}.{key}"
            if key == "pass" and val is not True:
                bad.append(f"{here} is {val!r}")
            bad += pass_flags(val, here)
    elif isinstance(report, list):
        for i, val in enumerate(report):
            bad += pass_flags(val, f"{path}[{i}]")
    return bad


def without_wall_time(text: str) -> str:
    return "".join(line for line in text.splitlines(True) if '"wall_time_s":' not in line)


# ---------------------------------------------------------------------------
# suite


def within_se(name, value, want, se, k=4.0) -> list:
    if abs(value - want) <= k * se:
        return []
    return [f"{name}: {value!r} is {abs(value - want) / se:.1f} SE from {want!r} (limit {k:g})"]


def weak_order_errors(seed, n, steps, T) -> list:
    """|mean X_T - 4 e^{-1}| of the Euler scheme for dX = -X dt + 0.1 dW, X_0 = 4,
    on the grids coarsened by 8, 4 and 2 from the seed's fine increments."""
    fine = brownian(seed, n, steps, T / steps)
    errors = []
    for factor in (8, 4, 2):
        m_steps = steps // factor
        dt = T / m_steps
        mean_incr = fine.reshape(n, m_steps, factor).sum(axis=2).mean(axis=0)
        m = 4.0
        for k in range(m_steps):
            m = (m + dt * (-m)) + 0.1 * mean_incr[k]
        errors.append(abs(m - 4.0 * math.exp(-T)))
    return errors


# (functional, process tag) -> closed form of the Ito LHS phi(T) - phi(0) for
# X_T = X_0 + c T + s0 W_T, the exact solution under constant F = c, G = s0
ITO_DRIVES = {"F=const[0.7],G=0": (0.7, 0.0), "F=0,G=0.5": (0.0, 0.5), "F=const[0.4],G=0.3": (0.4, 0.3)}


def ito_lhs_closed_forms(seed, n, steps, T) -> dict:
    x0 = gaussian_starts(seed, n, 0.0, 0.5)
    w_T = brownian(seed, n, steps, T / steps).sum(axis=1)
    out = {}
    for tag, (c, s0) in ITO_DRIVES.items():
        m0, m1 = x0.mean(), (x0 + c * T + s0 * w_T).mean()
        out[("linear_mean", tag)] = m1 - m0
        out[("mean_squared", tag)] = m1**2 - m0**2
    return out


def check_suite(report: dict) -> list:
    bad = pass_flags(report)
    cfg, res = report["config"], report["results"]
    seed, n = cfg["seed"], cfg["particles"]
    T, steps = float(cfg["grid"]["T"]), int(cfg["grid"]["steps"])

    var = res["ou_oracle"]["var"]
    var_ou = 0.25 * (1.0 - math.exp(-2.0 * T)) / 2.0
    bad += within_se("ou_oracle.var", var, var_ou, var * math.sqrt(2.0 / (n - 1)))

    want = weak_order_errors(seed + 3, n, steps, T)
    got = res["weak_order"]["errors"]
    for i, (g, w) in enumerate(zip(got, want)):
        bad += close(f"weak_order.errors[{i}]", g, w, 1e-10)
    for i, r in enumerate(res["weak_order"]["ratios"]):
        if not 0.3 <= r <= 0.7:
            bad.append(f"weak_order.ratios[{i}] = {r!r} is not near 1/2")

    lhs = {(c["functional"], c["model"]): c["lhs"] for c in res["ito"]["checks"]}
    for key, value in ito_lhs_closed_forms(seed, n, steps, T).items():
        if key not in lhs:
            bad.append(f"ito battery has no check for {key}")
        else:
            bad += close(f"ito lhs {key}", lhs[key], value, 1e-9)
    return bad


# ---------------------------------------------------------------------------
# ensemble


def ou_scheme_moments(a, s0, T, steps, m0, sd0):
    """Exact terminal mean and variance of the exponential-Euler scheme
    X_{k+1} = e^{a dt} (X_k + s0 dW_k) started from N(m0, sd0^2)."""
    dt = T / steps
    var = math.exp(2 * a * T) * sd0**2 + s0**2 * dt * sum(
        math.exp(2 * a * k * dt) for k in range(1, steps + 1)
    )
    return math.exp(a * T) * m0, var


def check_moments(mean, var, n, want_mean, want_var) -> list:
    return within_se("terminal_mean", mean, want_mean, math.sqrt(want_var / n)) + within_se(
        "terminal_var", var, want_var, want_var * math.sqrt(2.0 / (n - 1))
    )


def check_rate(rungs, averages, lo=0.25, hi=0.75) -> list:
    """Sliced W2 between N- and 4N-particle laws falls like N^{-p}, p near 1/2."""
    bad = []
    for (n0, n1), (d0, d1) in zip(zip(rungs, rungs[1:]), zip(averages, averages[1:])):
        p = -math.log(d1 / d0) / math.log(n1 / n0)
        if not lo <= p <= hi:
            bad.append(f"distance rate N^-{p:.3f} between N={n0} and N={n1} is outside [{lo}, {hi}]")
    return bad


def check_ensemble(converge: dict, simulate: dict) -> list:
    bad = pass_flags(converge, "converge") + pass_flags(simulate, "simulate")
    cfg = simulate["config"]
    params, init, grid = cfg["model"]["params"], cfg["initial"], cfg["grid"]
    want_mean, want_var = ou_scheme_moments(
        params["a"], params["s0"], float(grid["T"]), int(grid["steps"]), init["mean"], init["std"]
    )
    moments = simulate["results"]["moments"]
    bad += check_moments(
        moments["terminal_mean"][0], moments["terminal_var"][0], cfg["particles"], want_mean, want_var
    )
    res = converge["results"]
    return bad + check_rate(res["rungs"], res["avg_distances"])


# ---------------------------------------------------------------------------
# transport


def sup_cost(x, y):
    return ((x[:, None] - y[None]) ** 2).sum(axis=3).max(axis=2)


def brute_force_w2(x, y) -> float:
    """Uniform equal-size clouds: the best of all n! matchings."""
    c = sup_cost(x, y)
    n = len(x)
    return math.sqrt(min(sum(c[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))) / n)


def linprog_w2(x, wx, y, wy) -> float:
    """The transport LP with both marginal constraint families written out."""
    from scipy.optimize import linprog

    c = sup_cost(x, y)
    n, m = c.shape
    a_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    res = linprog(c.ravel(), A_eq=a_eq, b_eq=np.concatenate([wx, wy]), bounds=(0, None), method="highs")
    return math.sqrt(res.fun)


def small_instances(seed):
    """(x, wx, y, wy) with up to 6 uniform atoms, then up to 8 weighted ones."""
    r = np.random.default_rng([seed, 11])
    out = []
    for k in range(8):
        weighted = k >= 4
        n = int(r.integers(2, 9 if weighted else 7))
        m = int(r.integers(2, 9)) if weighted else n
        x, y = r.normal(size=(n, 6, 2)), r.normal(size=(m, 6, 2))
        wx = r.uniform(0.2, 1.0, n) if weighted else np.full(n, 1.0 / n)
        wy = r.uniform(0.2, 1.0, m) if weighted else np.full(m, 1.0 / m)
        out.append((x, wx / wx.sum(), y, wy / wy.sum(), weighted))
    return out


def check_transport(pathmkv, seed: int, report: dict, measures: list) -> list:
    """measures: the round's inputs as workloads.transport_measures gives them."""
    bad = [f"{k}: {v}" for k, v in report.items() if not isinstance(v, float)]
    if bad:
        return bad
    w2 = pathmkv.wasserstein2
    for name, mu, nu, kw, shift in measures:
        got = report[name]
        if shift is not None:
            bad += close(f"W2({name})", got, float(np.linalg.norm(shift)), 1e-12)
        else:
            bad += close(f"symmetry of {name}", w2(nu, mu, **kw), got, 1e-12 * max(1.0, got))
        if kw.get("mode") != "sliced":
            d = mu.dim
            sliced = w2(mu, nu, mode="sliced", projections=64, seed=0)
            if sliced > math.sqrt(d) * got * (1 + 1e-12):
                bad.append(f"sliced {sliced!r} exceeds sqrt({d}) x exact {got!r} on {name}")

    grid = pathmkv.TimeGrid(1.0, 5)
    for k, (x, wx, y, wy, weighted) in enumerate(small_instances(seed)):
        got = w2(pathmkv.EmpiricalPathMeasure(grid, x, wx), pathmkv.EmpiricalPathMeasure(grid, y, wy))
        want = linprog_w2(x, wx, y, wy) if weighted else brute_force_w2(x, y)
        bad += close(f"small instance {k} ({'linprog' if weighted else 'brute force'})", got, want, 1e-9)
    return bad
