"""Experiment orchestration: config ingestion, subcommand dispatch, reports.

The config is a JSON file validated against the schema below; unknown keys
are rejected with their dotted path.  All times are in model time units, the
horizon T and every split time included.  Each subcommand writes report.json
(and any CSV exports) into the output directory and exits 0 iff every pass
flag is true; schema and bound violations, and domain errors the runners
raise, exit 2 and numeric blow-ups exit 3.  All randomness flows from the
single root seed, so rerunning a config reproduces every numeric field bit for
bit (the wall_time_s field is the one exception).
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
    DEFAULT_CONFIG,
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
    T = cfg.get("grid", DEFAULT_CONFIG["grid"])["T"]
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


# Schema: key -> nested dict, or (type, bound or None[, required]); "*" stands
# for any key.  Times are in model time units and lie in [0, grid.T]; particle
# counts are dimensionless.
CONFIG_SCHEMA = {
    "model": {
        "tag": (str, None, True),
        "params": {  # each a number or a list of numbers
            "*": ((*NUMBER, list), lambda v, cfg: entries(NUMBER)(v, cfg) if isinstance(v, list) else None),
        },
    },
    "grid": {"T": (NUMBER, positive, True), "steps": (int, at_least(1), True)},
    "particles": (int, at_least(1)),
    "seed": (int, seed_range),
    "initial": {
        "kind": (str, None, True),
        "value": (list, entries(NUMBER)),
        "mean": (NUMBER, None),
        "std": (NUMBER, None),
        "a": (NUMBER, None),
        "b": (NUMBER, None),
        "scale": (NUMBER, None),
    },
    "simulate": {"t0": (NUMBER, in_horizon), "export_paths": (bool, None)},
    "picard": {
        "tol": (NUMBER, positive),
        "max_iter": (int, at_least(1)),
        "window": ((*NUMBER, type(None)), lambda v, cfg: None if v is None else positive(v, cfg)),
    },
    "yosida": {"ladder": (list, entries(NUMBER, positive))},
    "particles_converge": {
        "rungs": (list, entries(int, at_least(2), least=2)),  # the check compares successive rungs
        "n_seeds": (int, at_least(1)),
        "projections": (int, at_least(1)),
    },
    "wasserstein": {
        "n_instances": (int, at_least(1)),
        "n_triples": (int, at_least(1)),
        # the brute force enumerates max_atoms! permutations: 9! is within hjb.ENUMERATION_CAP
        "max_atoms": (int, lambda v, cfg: at_least(2)(v, cfg) or at_most(9)(v, cfg)),
    },
    "ito": {
        "t": (NUMBER, in_horizon),
        "s": (NUMBER, in_horizon),
        "dt_coeff": (NUMBER, at_least(0)),
        "functionals": (list, entries()),
    },
    # one atom has p_i = 1, so the one-sided FD error eps * p_i of mean_squared meets the gate eps
    "deriv": {"eps": (NUMBER, positive), "n_atoms": (int, at_least(2))},
    "dpp": {
        "t0": (NUMBER, in_horizon),
        "split_times": (list, entries(NUMBER, in_horizon)),
    },
    "law": {"n_particles": (int, at_least(2)), "families": (list, entries(list, entries()))},
    "hjb": {"times": (list, entries(NUMBER, in_horizon))},
    "hamiltonian": {
        "n_instances": (int, at_least(1)),
        "max_atoms": (int, at_least(1)),
        "max_actions": (int, at_least(1)),
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
        if isinstance(spec, tuple) and spec[2:] == (True,) and key not in cfg:
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
        validate_config(user)
        cfg.update(user)
    validate_config(cfg)
    return cfg


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
        results = SUBCOMMANDS[subcommand](cfg, out_dir)
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
