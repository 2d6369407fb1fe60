"""Workload definitions: seeds, configs, transport inputs and one timed round each.

A round is the unit the worker repeats and times.  `suite` and `ensemble`
call `pathmkv.cli.run` exactly as the `pathmkv` command does; `transport`
calls `pathmkv.wasserstein2` on path clouds made here from the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

# Every check in checks.py passes at each of these root seeds (the suite's
# gates are 3-SE statistical tests, so an arbitrary seed can fail one of
# them by design).  A benchmark seed n selects SEEDS[n % len(SEEDS)].
SEEDS = [
    20240915, 102, 103, 105, 107, 108, 109, 110,
    113, 117, 132, 120, 124, 125, 128, 130,
]

# ensemble: OU with a Gaussian initial law, many particles, a short grid.
# The short grid makes the exponential-Euler variance differ from the
# continuous-time one by about 13 standard errors at 20,000 particles, so the
# moment check can tell the scheme from the SDE.  A round takes about 6 s, so
# a timed run holds several rounds and reports their median.
ENSEMBLE_OU = {"a": -1.0, "s0": 0.5}
ENSEMBLE_INITIAL = {"kind": "gaussian", "mean": 0.5, "std": 0.2}
ENSEMBLE_GRID = {"T": 1.0, "steps": 8}
ENSEMBLE_PARTICLES = 20000
ENSEMBLE_CONVERGE = {"rungs": [250, 1000], "n_seeds": 4, "projections": 128}

# transport: clouds of 2-d paths on a 50-step grid (1-d for the sliced shift pair).
TRANSPORT_STEPS = 50
ASSIGNMENT_ATOMS = 512  # the documented exact-W2 cap
LP_SIZES = (160, 184)  # non-uniform, unequal sizes: the transport LP
LP_SHIFT_ATOMS = 176  # non-uniform, equal sizes: still the LP
SLICED_SIZES = (3000, 4000)
SLICED_PROJECTIONS = 64
SLICED_SHIFT_ATOMS = 2000
SLICED_SHIFT_PROJECTIONS = 32


def root_seed(bench_seed: int) -> int:
    return SEEDS[bench_seed % len(SEEDS)]


def ensemble_config(seed: int) -> dict:
    return {
        "model": {"tag": "ou", "params": dict(ENSEMBLE_OU)},
        "grid": dict(ENSEMBLE_GRID),
        "particles": ENSEMBLE_PARTICLES,
        "seed": seed,
        "initial": dict(ENSEMBLE_INITIAL),
        "particles_converge": dict(ENSEMBLE_CONVERGE),
    }


def write_config(workload: str, seed: int, run_dir: str) -> str | None:
    """The config file the worker loads during set-up (None: the default config)."""
    if workload != "ensemble":
        return None
    path = os.path.join(run_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(ensemble_config(seed), fh, indent=2, sort_keys=True)
    return path


# ---------------------------------------------------------------------------
# transport inputs


def _cloud(r, n, d, weighted):
    """Random-walk paths with a random start; weights in [0.5, 1.5], normalised."""
    x0 = r.normal(size=(n, 1, d))
    steps = r.normal(scale=0.2, size=(n, TRANSPORT_STEPS, d))
    values = np.concatenate([x0, x0 + np.cumsum(steps, axis=1)], axis=1)
    if not weighted:
        return values, None
    w = r.uniform(0.5, 1.5, n)
    return values, w / w.sum()


def transport_pairs(seed: int) -> list:
    """The timed calls of one round: (name, x, wx, y, wy, kwargs, shift).

    `shift` is the constant vector c when y = x + c (so W2 = |c| exactly),
    else None.
    """
    r = np.random.default_rng([seed, 7])
    pairs = []
    x, _ = _cloud(r, ASSIGNMENT_ATOMS, 2, False)
    y, _ = _cloud(r, ASSIGNMENT_ATOMS, 2, False)
    pairs.append(("assignment", x, None, y, None, {}, None))
    c = r.normal(size=2)
    pairs.append(("assignment_shift", x, None, x + c, None, {}, c))
    x, wx = _cloud(r, LP_SIZES[0], 2, True)
    y, wy = _cloud(r, LP_SIZES[1], 2, True)
    pairs.append(("lp", x, wx, y, wy, {}, None))
    x, wx = _cloud(r, LP_SHIFT_ATOMS, 2, True)
    c = r.normal(size=2)
    pairs.append(("lp_shift", x, wx, x + c, wx, {}, c))
    sliced = {"mode": "sliced", "projections": SLICED_PROJECTIONS, "seed": seed % 1000}
    x, wx = _cloud(r, SLICED_SIZES[0], 2, True)
    y, wy = _cloud(r, SLICED_SIZES[1], 2, True)
    pairs.append(("sliced", x, wx, y, wy, sliced, None))
    x, wx = _cloud(r, SLICED_SHIFT_ATOMS, 1, True)
    c = r.normal(size=1)
    shift_kw = {"mode": "sliced", "projections": SLICED_SHIFT_PROJECTIONS, "seed": seed % 1000 + 1}
    pairs.append(("sliced_1d_shift", x, wx, x + c, wx, shift_kw, c))
    return pairs


def transport_measures(pathmkv, seed: int) -> list:
    grid = pathmkv.TimeGrid(1.0, TRANSPORT_STEPS)
    measure = pathmkv.EmpiricalPathMeasure
    return [
        (name, measure(grid, x, wx), measure(grid, y, wy), kw, shift)
        for name, x, wx, y, wy, kw, shift in transport_pairs(seed)
    ]


# ---------------------------------------------------------------------------
# rounds: each returns (attempted, failed) and writes report.json into out_dir


def suite_round(ctx, out_dir):
    status = ctx.cli.run("suite", None, out_dir, seed=ctx.seed, threads=1)
    return 1, int(status != 0)


def ensemble_round(ctx, out_dir):
    failed = 0
    for sub, name in (("particles-converge", "converge"), ("simulate", "simulate")):
        status = ctx.cli.run(sub, ctx.config_path, os.path.join(out_dir, name), threads=1)
        failed += int(status != 0)
    return 2, failed


def transport_round(ctx, out_dir):
    distances = {}
    failed = 0
    for name, mu, nu, kw, _shift in ctx.inputs:
        try:
            distances[name] = ctx.pathmkv.wasserstein2(mu, nu, **kw)
        except Exception as exc:  # counted as a failed operation, reported by name
            distances[name] = f"error: {type(exc).__name__}: {exc}"
            failed += 1
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(distances, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return len(ctx.inputs), failed


ROUNDS = {"suite": suite_round, "ensemble": ensemble_round, "transport": transport_round}

# report files a round writes, relative to its directory
REPORTS = {
    "suite": ["report.json"],
    "ensemble": ["converge/report.json", "simulate/report.json"],
    "transport": ["report.json"],
}
