"""The benchmark's tracer wraps library functions by name: each must exist.

``benchmarks/tracing.py`` lists them in ``TRACED`` as (module, attribute)
pairs, a dotted attribute being a method defined on its class.  Renaming
or pruning one of them would otherwise surface only in a traced
benchmark run.
"""

import importlib
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_traced_name_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
    assert tracing.TRACED
    for module_name, attribute, _ in tracing.TRACED:
        module = importlib.import_module(f"g2jones.{module_name}")
        if "." in attribute:
            class_name, method = attribute.split(".")
            assert method in vars(getattr(module, class_name)), attribute
        else:
            assert callable(getattr(module, attribute, None)), f"{module_name}.{attribute}"
