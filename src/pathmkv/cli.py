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
from .errors import ConfigurationError, IntegrationBlowupError, NonConvergenceError

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

# Schema: key -> (type or nested dict, required).  Times are in model time
# units; seeds are integers in [0, SEED_LIMIT); particle counts are
# dimensionless.
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
    "hjb": ({"times": (list, False)}, False),
    "hamiltonian": (
        {"n_instances": (int, False), "max_atoms": (int, False), "max_actions": (int, False)},
        False,
    ),
}

# Seeds key the Philox streams as unsigned 64-bit words, and the runners derive
# seeds up to seed + 1000 + n_seeds from the root one; below 2**63 all of them fit.
SEED_LIMIT = 2**63

# Lower bounds on numeric keys, by dotted path.
CONFIG_MINIMA = {
    "particles": 1,
    "seed": 0,
    "grid.steps": 1,
    "picard.max_iter": 1,
    "particles_converge.projections": 1,
    "particles_converge.n_seeds": 1,
    "wasserstein.n_instances": 1,
    "wasserstein.max_atoms": 2,
    "deriv.n_atoms": 1,
    "hamiltonian.n_instances": 1,
    "hamiltonian.max_atoms": 1,
    "hamiltonian.max_actions": 1,
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
        elif here == "seed" and value >= SEED_LIMIT:
            raise ConfigurationError(f"config key 'seed' must be < 2**63, got {value}")
    for key, (spec, required) in schema.items():
        if required and key not in cfg:
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
    except ConfigurationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    os.makedirs(out_dir, exist_ok=True)
    t0 = time.perf_counter()
    try:
        results = SUBCOMMANDS[subcommand](cfg, out_dir)
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
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
