"""The names in `catcavity` that the benchmark harness reads.

`BENCHMARK.json` lists per-layer metrics `<module>.<function>.calls` and
`.self_s`, which the traced harness (`benchmarks/run.py --trace 1`) reads
from spans it wraps around those functions; a function renamed or made
private there makes the traced run fail with a KeyError.  The harness also
wraps `oracle.solve_ivp`, calls `dressed.build_dressed_frame`, and reads
the oracle as `test_harness_reads_of_the_oracle` does.  Each of these pins
a name or a path that ROADMAP item 12 deletes only with the harness.
"""

import importlib
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from catcavity import JCParams, damping, dressed, oracle, states

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


def test_harness_reads_of_the_oracle():
    # benchmarks/workloads.py builds damping.DampingParams, passes the
    # dressed frame to oracle_observables as a second argument, and in
    # Oracle.check iterates each trajectory for the `.matrix` of every
    # sample, whose trace drift it bounds by 10 * oracle.DEFAULT_TOL
    jc = JCParams(g=1.0)
    rho0 = oracle.build_initial_state(states.CatSpec(intensity=0.3,
                                                     phase=1.1), 8)
    traj = oracle.integrate_trajectory(
        rho0, jc, damping.DampingParams(kappa=0.1), [0.0, 0.1])
    oracle.oracle_observables(traj, dressed.build_dressed_frame(jc, 8))
    drift = [abs(np.trace(rho.matrix).real - 1.0) for rho in traj]
    assert len(drift) == 2 and max(drift) <= 10.0 * oracle.DEFAULT_TOL
