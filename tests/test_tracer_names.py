"""Every function the benchmark tracer (bench/tracer.py) wraps must exist in
the pathmkv layer it names; a missing name would otherwise show only as a
stderr line in a traced benchmark run."""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _layers():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)  # defines Tracer; installs nothing
    return [(layer, name) for layer, names in tracer.LAYERS.items() for name in names]


@pytest.mark.parametrize("layer, name", _layers())
def test_traced_name_is_a_callable_of_its_layer(layer, name):
    module = importlib.import_module(f"pathmkv.{layer}")
    assert callable(getattr(module, name, None)), f"pathmkv.{layer}.{name}"


# the spans whose count feeds a per-layer metric: rng.normals,
# sde.particle_steps, the assignment/LP split and calculus.ito_node_laws
COUNTED = ("sde.integrate", "calculus.ito_verify", "rng.brownian_increments", "measure.exact_ot_cost")

TRACED_SUITE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import tracer

t = tracer.Tracer()
t.install()
import pathmkv.cli as cli

code = cli.main(["suite", "--config", sys.argv[2], "--out", sys.argv[3]])
spans = [[name, info is not None] for name, _p, _s, _e, info in t.spans]
print(json.dumps({"code": code, "missing": t.missing, "spans": spans}))
"""


def test_every_counted_span_of_a_traced_small_suite_carries_its_count(tmp_path):
    import json
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), os.pardir)
    with open(os.path.join(root, "tests", "data", "suite_small.json")) as fh:
        config = json.load(fh)["config"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    env = {**os.environ, "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_SUITE, os.path.join(root, "bench"), str(cfg), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["code"] == 0 and result["missing"] == []
    for name in COUNTED:
        counted = [ok for span, ok in result["spans"] if span == name]
        assert counted, f"no {name} span in a traced suite"
        assert all(counted), f"{counted.count(False)} of {len(counted)} {name} spans carry no count"
