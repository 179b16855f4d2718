"""The names in `catcavity` that the benchmark harness reads.

`BENCHMARK.json` lists per-layer metrics `<module>.<function>.calls` and
`.self_s`, which the traced harness (`benchmarks/run.py --trace 1`) reads
from spans it wraps around those functions; a function renamed or made
private there makes the traced run fail with a KeyError.  The harness also
wraps `oracle.solve_ivp` and calls `dressed.build_dressed_frame`.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def _layer_functions():
    layers = json.loads(BENCHMARK.read_text(encoding="utf-8"))["per_layer"]
    return sorted({metric["name"].rsplit(".", 1)[0] for metric in layers
                   if metric["name"].endswith((".calls", ".self_s"))})


@pytest.mark.parametrize("name", _layer_functions())
def test_per_layer_metric_names_a_public_function(name):
    module, function = name.split(".")
    value = getattr(importlib.import_module(f"catcavity.{module}"), function,
                    None)
    assert not function.startswith("_") and inspect.isfunction(value), name


@pytest.mark.parametrize("module, name", [("oracle", "solve_ivp"),
                                          ("dressed", "build_dressed_frame")])
def test_harness_entry_points_exist(module, name):
    assert callable(getattr(importlib.import_module(f"catcavity.{module}"),
                            name, None))
