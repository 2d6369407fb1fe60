"""Negative controls for the benchmark's output checks.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py

Each check must accept the right answer and reject a deliberately wrong one.
"""

import copy
import math
import os
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

pathmkv = pytest.importorskip("pathmkv")


def test_w2_off_by_1e6_is_rejected():
    grid = pathmkv.TimeGrid(1.0, 5)
    r = np.random.default_rng(0)
    x = r.normal(size=(7, 6, 2))
    w = r.uniform(0.5, 1.5, 7)
    w /= w.sum()
    c = np.array([0.3, -1.1])
    d = pathmkv.wasserstein2(pathmkv.EmpiricalPathMeasure(grid, x, w), pathmkv.EmpiricalPathMeasure(grid, x + c, w))
    want = float(np.linalg.norm(c))
    assert checks.close("W2", d, want, 1e-12) == []
    assert checks.close("W2", d + 1e-6, want, 1e-12) != []


def test_transport_small_instances_agree_with_independent_solvers():
    for x, wx, y, wy, weighted in checks.small_instances(3):
        grid = pathmkv.TimeGrid(1.0, 5)
        got = pathmkv.wasserstein2(pathmkv.EmpiricalPathMeasure(grid, x, wx), pathmkv.EmpiricalPathMeasure(grid, y, wy))
        want = checks.linprog_w2(x, wx, y, wy) if weighted else checks.brute_force_w2(x, y)
        assert checks.close("small", got, want, 1e-9) == []
        assert checks.close("small", got + 1e-6, want, 1e-9) != []


def test_continuous_time_ou_variance_is_rejected():
    cfg = workloads.ensemble_config(0)
    a, s0 = cfg["model"]["params"]["a"], cfg["model"]["params"]["s0"]
    T, steps, n = cfg["grid"]["T"], cfg["grid"]["steps"], cfg["particles"]
    m0, sd0 = cfg["initial"]["mean"], cfg["initial"]["std"]
    mean, var = checks.ou_scheme_moments(a, s0, T, steps, m0, sd0)
    assert checks.check_moments(mean, var, n, mean, var) == []
    # the terminal variance of the SDE itself, which the scheme must not match
    var_sde = math.exp(2 * a * T) * sd0**2 + s0**2 * (1 - math.exp(2 * a * T)) / (-2 * a)
    assert checks.check_moments(mean, var_sde, n, mean, var) != []


def test_scheme_moments_match_a_direct_recursion():
    # the closed form against the scheme run on the exact Gaussian moments
    a, s0, T, steps, m0, sd0 = -1.0, 0.5, 1.0, 16, 0.5, 0.2
    dt = T / steps
    e = math.exp(a * dt)
    mean, var = m0, sd0**2
    for _ in range(steps):
        mean, var = e * mean, e * e * (var + s0 * s0 * dt)
    want_mean, want_var = checks.ou_scheme_moments(a, s0, T, steps, m0, sd0)
    assert abs(mean - want_mean) < 1e-14 and abs(var - want_var) < 1e-14


def test_rate_band():
    assert checks.check_rate([1000, 4000], [0.02, 0.0101]) == []
    assert checks.check_rate([1000, 4000], [0.02, 0.0195]) != []


def test_suite_report_with_one_flag_flipped_is_rejected():
    report = {
        "pass": True,
        "results": {
            "pass": True,
            "ou_oracle": {"pass": True},
            "ito": {"pass": True, "checks": [{"pass": True}, {"pass": True}]},
        },
    }
    assert checks.pass_flags(report) == []
    flipped = copy.deepcopy(report)
    flipped["results"]["ito"]["checks"][1]["pass"] = False
    assert checks.pass_flags(flipped) == ["report.results.ito.checks[1].pass is False"]


def test_regenerated_noise_matches_the_program_stream():
    from pathmkv import rng

    got = rng.brownian_increments(5, 3, 4, 1, 0.25)[:, :, 0]
    assert np.array_equal(checks.brownian(5, 3, 4, 0.25), got)


def test_self_times_add_up_to_the_traced_wall():
    t = tracer.Tracer()
    outer = t._wrap("cli.run", lambda: inner())
    inner = t._wrap("sde.integrate", lambda: sum(range(10000)))
    t0 = time.perf_counter()
    outer()
    wall = time.perf_counter() - t0
    metrics, accounted = t.metrics(wall)
    assert abs(accounted - wall) < 1e-9
    assert metrics["trace.spans"] == 2
