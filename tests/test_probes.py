"""The benchmark's tracing probes name callables of the package.

``perfbench/tracing.py`` wraps the callables listed in its ``PROBES``; a
probe whose target is renamed or removed silently drops its per-layer
metrics, so every target must resolve.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _probes():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, attr) for mod, attr, *_ in module.PROBES]


@pytest.mark.parametrize("module_name, attr", _probes())
def test_probe_target_is_callable(module_name, attr):
    assert module_name == "rankworth" or module_name.startswith("rankworth.")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        # tracing patches a method where its class defines it
        assert callable(vars(owner).get(attr))
    else:
        assert callable(getattr(owner, attr, None))
