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
