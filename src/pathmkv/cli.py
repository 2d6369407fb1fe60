"""Experiment orchestration: config ingestion, subcommand dispatch, reports.

The config is a JSON file validated against the schema below, which holds each
key's default too; unknown keys are rejected with their dotted path.  Times
are in model time units.  Each subcommand runs on the resolved config, writes
report.json (and any CSV exports) into the output directory and exits 0 iff
every pass flag is true; schema and bound violations, and domain errors the
runners raise, exit 2 and numeric blow-ups exit 3.  All randomness flows from
the single root seed, so rerunning a config reproduces every numeric field bit
for bit (the wall_time_s field is the one exception).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from . import __version__
from .acceptance import (
    run_deriv,
    run_dpp,
    run_hamiltonian,
    run_hjb,
    run_ito,
    run_law,
    run_particles_converge,
    run_picard,
    run_simulate,
    run_suite,
    run_wasserstein,
    run_yosida,
)
from .acceptance import _run_investment  # noqa: F401  bench/tracer.py resolves and wraps it here
from .errors import ConfigurationError, DomainError, IntegrationBlowupError, NonConvergenceError

# Subcommand -> runner; each runner returns a JSON-ready dict with a "pass" flag.
SUBCOMMANDS = {
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

NUMBER = (int, float)


def _is(value, types) -> bool:
    """isinstance, except that a bool (an int subclass) passes only where
    `types` names bool."""
    types = types if isinstance(types, tuple) else (types,)
    return isinstance(value, types) and (bool in types or not isinstance(value, bool))


# Bounds: bound(value, cfg) returns what the value breaks, or None.


def at_least(n):
    return lambda v, cfg: None if v >= n else f"must be >= {n}"


def at_most(n):
    return lambda v, cfg: None if v <= n else f"must be <= {n}"


def positive(v, cfg):
    return None if v > 0 else "must be > 0"


def seed_range(v, cfg):
    # Seeds key the Philox streams as uint64 words, and the runners derive
    # seeds up to seed + 1000 + n_seeds from the root one: all fit below 2**63.
    return None if 0 <= v < 2**63 else "must lie in [0, 2**63)"


def in_horizon(v, cfg):
    T = cfg["grid"]["T"]
    return None if 0 <= v <= T else f"must lie in [0, {T}]"


def entries(kind=None, bound=None, least=1):
    """A list of at least `least` entries, each of type `kind` (any type when
    None) within `bound`."""

    def check(v, cfg):
        if len(v) < least:
            return f"must list {least} or more entries"
        for x in v:
            if kind is not None and not _is(x, kind):
                return f"must list entries of type {kind}, got {x!r}"
            if bound is not None and (broken := bound(x, cfg)):
                return f"entry {x!r} {broken}"

    return check


# The config a run starts from: a user config replaces its top-level keys whole.
DEFAULT_CONFIG = {
    "model": {"tag": "ou", "params": {"a": -1.0, "s0": 0.5}},
    "grid": {"T": 1.0, "steps": 1000},
    "particles": 4000,
    "seed": 20240915,
    "initial": {"kind": "constant", "value": [0.0]},
}

# Default markers: a key every config gives, and a key read only where given (a
# model param or an initial key: its default sits with its factory or its kind).
REQUIRED, UNSET = object(), object()

# Schema: key -> nested dict, or (type, bound or None, default); "*" stands for
# any key.  A default is a value, a marker or default(cfg) of the whole config.
# Times are in model time units and lie in [0, grid.T]; counts are dimensionless.
CONFIG_SCHEMA = {
    "model": {
        "tag": (str, None, REQUIRED),
        "params": {  # each a number or a list of numbers
            "*": ((*NUMBER, list), lambda v, cfg: entries(NUMBER)(v, cfg) if isinstance(v, list) else None, UNSET),
        },
    },
    "grid": {"T": (NUMBER, positive, REQUIRED), "steps": (int, at_least(1), REQUIRED)},
    "particles": (int, at_least(2), DEFAULT_CONFIG["particles"]),
    "seed": (int, seed_range, DEFAULT_CONFIG["seed"]),
    "initial": {
        "kind": (str, None, REQUIRED),
        "value": (list, entries(NUMBER), UNSET),
        "mean": (NUMBER, None, UNSET),
        "std": (NUMBER, None, UNSET),
        "a": (NUMBER, None, UNSET),
        "b": (NUMBER, None, UNSET),
        "scale": (NUMBER, None, UNSET),
    },
    "simulate": {"t0": (NUMBER, in_horizon, 0.0), "export_paths": (bool, None, False)},
    "picard": {
        "tol": (NUMBER, positive, 1e-10),
        "max_iter": (int, at_least(1), 40),
        "window": ((*NUMBER, type(None)), lambda v, cfg: None if v is None else positive(v, cfg), None),
    },
    "yosida": {"ladder": (list, entries(NUMBER, positive), [2, 8, 32])},
    "particles_converge": {
        "rungs": (list, entries(int, at_least(2), least=2), [250, 1000]),  # the check compares successive rungs
        "n_seeds": (int, at_least(1), 4),
        "projections": (int, at_least(1), 128),
    },
    "wasserstein": {
        "n_instances": (int, at_least(1), 100),
        "n_triples": (int, at_least(1), 1000),
        # the brute force enumerates max_atoms! permutations: 9! is within hjb.ENUMERATION_CAP
        "max_atoms": (int, lambda v, cfg: at_least(2)(v, cfg) or at_most(9)(v, cfg), 6),
    },
    "ito": {
        "t": (NUMBER, in_horizon, 0.0),
        "s": (NUMBER, in_horizon, lambda cfg: cfg["grid"]["T"]),
        "dt_coeff": (NUMBER, at_least(0), 10.0),
        "functionals": (list, entries(), ["linear_mean", "mean_squared", "quadratic_form"]),
    },
    # one atom has p_i = 1, so the one-sided FD error eps * p_i of mean_squared meets the gate eps
    "deriv": {"eps": (NUMBER, positive, 1e-5), "n_atoms": (int, at_least(2), 6)},
    "dpp": {
        "t0": (NUMBER, in_horizon, 0.0),
        "split_times": (list, entries(NUMBER, in_horizon), [0.25, 0.5, 0.75]),
    },
    "law": {
        "n_particles": (int, at_least(2), lambda cfg: min(cfg["particles"], 2000)),
        "families": (list, entries(list, entries()), [[{"kind": "uncontrolled"}], [{"kind": "constant", "u": [0.0]}],
                     [{"kind": "constant", "u": [0.0]}, {"kind": "constant", "u": [0.5]}],
                     [{"kind": "constant", "u": [0.25]}, {"kind": "constant", "u": [0.75]}]]),
    },
    "hjb": {"times": (list, entries(NUMBER, in_horizon), [0.0, 0.3, 0.7])},
    "hamiltonian": {
        "n_instances": (int, at_least(1), 50),
        "max_atoms": (int, at_least(1), 4),
        "max_actions": (int, at_least(1), 5),
    },
}


def validate_config(cfg, schema=None, path="", root=None) -> None:
    """Check `cfg` against `schema`; bounds read the horizon from `root`, the
    whole config.  Keys are checked in schema order, the grid before any time."""
    schema = CONFIG_SCHEMA if schema is None else schema
    root = cfg if root is None else root
    if not isinstance(cfg, dict):
        raise ConfigurationError(f"config key {path!r} must be an object" if path else "config root must be an object")
    order = list(schema)
    for key in sorted(cfg, key=lambda k: order.index(k) if k in schema else len(order)):
        here = f"{path}.{key}" if path else key
        spec = schema.get(key, schema.get("*"))
        if spec is None:
            raise ConfigurationError(f"unknown config key {here!r}")
        if isinstance(spec, dict):
            validate_config(cfg[key], spec, here, root)
        elif not _is(cfg[key], spec[0]):
            raise ConfigurationError(
                f"config key {here!r} has type {type(cfg[key]).__name__}, expected {spec[0]}"
            )
        elif any(isinstance(x, float) and not math.isfinite(x)
                 for x in (cfg[key] if isinstance(cfg[key], list) else [cfg[key]])):
            raise ConfigurationError(f"config key {here!r} must be finite, got {cfg[key]}")
        elif spec[1] is not None and (broken := spec[1](cfg[key], root)):
            raise ConfigurationError(f"config key {here!r} {broken}, got {cfg[key]}")
    for key, spec in schema.items():
        if isinstance(spec, tuple) and spec[2] is REQUIRED and key not in cfg:
            raise ConfigurationError(f"missing required config key {path + '.' + key if path else key!r}")


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
        cfg = {**cfg, **user} if isinstance(user, dict) else user  # validate_config refuses a non-object
    validate_config(cfg)
    return cfg


def _with_defaults(cfg, schema, root):
    out = dict(cfg)
    for key, spec in schema.items():
        if isinstance(spec, dict):
            out[key] = _with_defaults(cfg.get(key, {}), spec, root)
        elif key not in cfg and spec[2] not in (REQUIRED, UNSET):
            out[key] = spec[2](root) if callable(spec[2]) else spec[2]
    return out


def resolve_config(cfg: dict) -> dict:
    """A deep copy of the validated config `cfg` with every schema default
    filled in, the config every runner reads; `cfg` is left as it is."""
    return json.loads(json.dumps(_with_defaults(cfg, CONFIG_SCHEMA, cfg)))


def run(subcommand: str, config_path: str | None, out_dir: str = ".",
        seed: int | None = None, threads: int = 1) -> int:
    """Dispatch a subcommand; returns the process exit status.

    `threads` is accepted and ignored: every run is serial.  It stays only
    because bench/workloads.py passes threads=1; ROADMAP item 6 deletes it
    with the next change to the benchmark.
    """
    try:
        cfg = load_config(config_path)
        if seed is not None:
            cfg["seed"] = int(seed)
            validate_config(cfg)
        if subcommand not in SUBCOMMANDS:
            raise ConfigurationError(
                f"unknown subcommand {subcommand!r}; known: {list(SUBCOMMANDS)}"
            )
        os.makedirs(out_dir, exist_ok=True)
        t0 = time.perf_counter()
        results = SUBCOMMANDS[subcommand](resolve_config(cfg), out_dir)
    except IntegrationBlowupError as exc:
        print(f"numeric blow-up: {exc}", file=sys.stderr)
        return 3
    # a runner's DomainError is a model-dependent domain, e.g. a Yosida n <= eta
    except (ConfigurationError, DomainError) as exc:
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
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
