"""The benchmark's tracer patches package functions by name: every
(module, attribute) it lists must exist, so that a rename in the package
fails here instead of silently breaking a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


@pytest.mark.parametrize("mod_name,attr", [layer[:2] for layer in _layers()])
def test_tracer_layer_resolves(mod_name, attr):
    owner = importlib.import_module(mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__.get(meth)), attr
    else:
        assert callable(getattr(owner, attr, None)), attr
