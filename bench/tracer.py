"""Traced run: wrap pathmkv's public functions, record spans, derive per-layer metrics.

Each wrapped call appends one span (name, parent, start, end, info) to an
in-memory list; `info` is a count computed from the call's arguments.  The
spans are written out only when the run ends.  A layer's self time is the sum
over its spans of the span's duration minus the durations of its child spans,
so the self times of all layers plus the time outside every span add up to the
traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = {
    "rng": ("particle_generator", "brownian_increments", "refine_increments", "uniforms"),
    "sde": ("integrate", "integrate_yosida", "integrate_picard", "flow_restart_check", "s2_distance"),
    "measure": ("wasserstein2", "exact_ot_cost", "wasserstein2_controls"),
    "calculus": (
        "ito_verify",
        "horizontal_derivative",
        "measure_derivative_discrete",
        "measure_derivative_field",
        "second_derivative",
        "consistency_check",
    ),
    "control": ("reward", "estimate_value", "dpp_check", "law_invariance_check"),
    "hjb": (
        "hamiltonian_sup_finite",
        "hamiltonian_sup_randomized",
        "investment_hamiltonian_closed_form",
        "hamiltonian_from_model",
        "hjb_residual",
    ),
    "cli": (
        "run",
        "run_suite",
        "run_simulate",
        "run_particles_converge",
        "run_yosida",
        "run_wasserstein",
        "run_deriv",
        "run_ito",
        "run_dpp",
        "run_law",
        "run_hamiltonian",
        "run_hjb",
        "_run_investment",
    ),
}

# the runners `run_suite` calls, each reported as cli.stage.<name>_s
SUITE_STAGES = ("yosida", "wasserstein", "deriv", "ito", "dpp", "law", "hamiltonian", "hjb")

PER_LAYER = (
    ["rng.self_s", "rng.generators", "rng.normals"]
    + ["sde.integrate_calls", "sde.particle_steps", "sde.integrate_self_s", "sde.ns_per_particle_step"]
    + ["measure.assignment_calls", "measure.assignment_s"]
    + ["measure.lp_calls", "measure.lp_s", "measure.lp_variables"]
    + ["measure.sliced_calls", "measure.sliced_s", "measure.sliced_projected_atoms"]
    + ["calculus.ito_calls", "calculus.ito_self_s", "calculus.ito_node_laws"]
    + ["control.dpp_self_s", "control.law_self_s", "control.integrate_calls"]
    + ["hjb.investment_closed_form_s", "hjb.hamiltonian_s", "hjb.residual_s"]
    + [f"cli.stage.{s}_s" for s in SUITE_STAGES]
    + ["cli.suite_inline_s", "cli.investment_self_s"]
    + ["trace.overhead_s", "trace.unwrapped_s", "trace.spans"]
)


def unit_of(metric: str) -> str:
    if metric == "sde.ns_per_particle_step":
        return "ns"
    return "s" if metric.endswith("_s") else "count"


# ---------------------------------------------------------------------------
# counts from call arguments


def _brownian_normals(a):
    return int(a["n_particles"]) * int(a["n_steps"]) * int(a["dk"])


def _particle_steps(a):
    grid = a["model"].grid
    j0 = grid.node(a["t0"])
    j_end = grid.steps if a["t_end"] is None else grid.node(a["t_end"])
    return int(a["n_particles"]) * max(j_end - j0, 0)


def _ot_kind(a):
    # the same test exact_ot_cost applies to choose the assignment solver
    cost, w_row, w_col = a["cost"], np.asarray(a["w_row"]), np.asarray(a["w_col"])
    n, m = cost.shape
    uniform = (
        n == m
        and np.allclose(w_row, 1.0 / n, atol=1e-15)
        and np.allclose(w_col, 1.0 / m, atol=1e-15)
    )
    return ("assignment" if uniform else "lp", n * m)


def _w2_sliced_atoms(a):
    if a["mode"] != "sliced":
        return None
    return int(a["projections"]) * (a["mu"].n_atoms + a["nu"].n_atoms)


def _ito_node_laws(a):
    # one law per node of [t, s] plus the two LHS endpoints, for the full
    # ensemble and for each of the n_batches standard-error batches
    grid = a["model"].grid if a["model"] is not None else a["grid"]
    nodes = grid.node(a["s"]) - grid.node(a["t"])
    return (1 + int(a["n_batches"])) * (nodes + 2)


INFO = {
    "rng.brownian_increments": _brownian_normals,
    "sde.integrate": _particle_steps,
    "measure.exact_ot_cost": _ot_kind,
    "measure.wasserstein2": _w2_sliced_atoms,
    "calculus.ito_verify": _ito_node_laws,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent index, start, end, info]
        self._stack = []
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info_fn = INFO.get(name)
        sig = inspect.signature(fn) if info_fn else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = None
            if info_fn is not None:
                try:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    info = info_fn(bound.arguments)
                except Exception:  # malformed call: the function itself reports it
                    info = None
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, info]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        return wrapper

    def install(self):
        """Rebind every listed function in every pathmkv namespace that binds it,
        module attributes and module-level dicts (such as cli.RUNNERS) alike."""
        for layer in LAYERS:
            importlib.import_module(f"pathmkv.{layer}")
        namespaces = [m for k, m in sys.modules.items() if k == "pathmkv" or k.startswith("pathmkv.")]
        for layer, names in LAYERS.items():
            mod = sys.modules[f"pathmkv.{layer}"]
            for fname in names:
                orig = getattr(mod, fname, None)
                if not callable(orig):
                    self.missing.append(f"{layer}.{fname}")
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, attr, wrapped)
                        elif isinstance(val, dict):
                            for key, item in list(val.items()):
                                if item is orig:
                                    val[key] = wrapped

    def write(self, path, t_origin):
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, parent, start, end, _info) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - t_origin:.9f},{end - t_origin:.9f}\n")

    def metrics(self, traced_wall_s: float):
        """Per-layer metrics, and the self times plus unwrapped time summed
        (which must equal traced_wall_s).  trace.overhead_s needs the untraced
        run and is left for the caller."""
        spans = self.spans
        n = len(spans)
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * n
        cli_child = [0.0] * n
        for i, s in enumerate(spans):
            if s[1] >= 0:
                child[s[1]] += dur[i]
                if s[0].startswith("cli."):
                    cli_child[s[1]] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]
        # nearest dpp/law ancestor-or-self, and whether a control span encloses
        ctx = [None] * n
        in_control = [False] * n
        for i, (name, parent, *_rest) in enumerate(spans):
            up_ctx = ctx[parent] if parent >= 0 else None
            ctx[i] = name if name in ("control.dpp_check", "control.law_invariance_check") else up_ctx
            in_control[i] = name.startswith("control.") or (parent >= 0 and in_control[parent])

        m = dict.fromkeys(PER_LAYER, 0.0)
        for i, (name, parent, _start, _end, info) in enumerate(spans):
            layer = name.split(".", 1)[0]
            parent_name = spans[parent][0] if parent >= 0 else None
            if layer == "rng":
                m["rng.self_s"] += self_t[i]
                if name == "rng.particle_generator":
                    m["rng.generators"] += 1
                elif name == "rng.brownian_increments" and info is not None:
                    m["rng.normals"] += info
            elif name == "sde.integrate":
                m["sde.integrate_calls"] += 1
                m["sde.integrate_self_s"] += self_t[i]
                m["sde.particle_steps"] += info or 0
                if parent >= 0 and in_control[parent]:
                    m["control.integrate_calls"] += 1
            elif name == "measure.exact_ot_cost" and info is not None:
                kind, size = info
                m[f"measure.{kind}_calls"] += 1
                m[f"measure.{kind}_s"] += dur[i]
                if kind == "lp":
                    m["measure.lp_variables"] += size
            elif name == "measure.wasserstein2" and info is not None:
                m["measure.sliced_calls"] += 1
                m["measure.sliced_s"] += dur[i]
                m["measure.sliced_projected_atoms"] += info
            elif name == "calculus.ito_verify":
                m["calculus.ito_calls"] += 1
                m["calculus.ito_self_s"] += self_t[i]
                m["calculus.ito_node_laws"] += info or 0
            elif name == "hjb.investment_hamiltonian_closed_form":
                m["hjb.investment_closed_form_s"] += dur[i]
            elif name in ("hjb.hamiltonian_sup_finite", "hjb.hamiltonian_sup_randomized"):
                m["hjb.hamiltonian_s"] += dur[i]
            elif name == "hjb.hjb_residual":
                m["hjb.residual_s"] += dur[i]
            elif name == "cli.run_suite":
                m["cli.suite_inline_s"] += dur[i] - cli_child[i]
            elif name == "cli._run_investment":
                m["cli.investment_self_s"] += self_t[i]
            if layer == "control":
                if ctx[i] == "control.dpp_check":
                    m["control.dpp_self_s"] += self_t[i]
                elif ctx[i] == "control.law_invariance_check":
                    m["control.law_self_s"] += self_t[i]
            if parent_name == "cli.run_suite" and name.startswith("cli.run_"):
                stage = name[len("cli.run_"):]
                if stage in SUITE_STAGES:
                    m[f"cli.stage.{stage}_s"] += dur[i]

        steps = m["sde.particle_steps"]
        m["sde.ns_per_particle_step"] = 1e9 * m["sde.integrate_self_s"] / steps if steps else 0.0
        roots = sum(dur[i] for i in range(n) if spans[i][1] < 0)
        m["trace.unwrapped_s"] = traced_wall_s - roots
        m["trace.spans"] = n
        for key in m:
            if unit_of(key) == "count":
                m[key] = int(m[key])
        self_total = sum(self_t)
        return m, self_total + m["trace.unwrapped_s"]
