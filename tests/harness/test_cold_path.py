"""The timing runs' cold path never imports NumPy.

Paper-scale FT uses virtual (metadata-only) arrays and UTS has no shared
arrays at all, so NumPy loads only where arrays are computed: real-backed
``SharedArray`` data, the FT serial reference and its real data plane,
and GUPS.  Each probe runs in a fresh interpreter, so nothing another
test imported can mask an eager import.
"""

import os
import subprocess
import sys

import repro

_TIMING_RUNS = """
import importlib, sys

import repro.harness.__main__
from repro.harness.executor import _ADAPTER_PACKAGES, execute_spec
from repro.harness.runner import get_experiment

plans = {eid: get_experiment(eid).points(scale)
         for eid, scale in (("t3_2", "quick"), ("r1", "quick"),
                            ("f3_4", "paper"))}
for specs in plans.values():
    for spec in specs:
        importlib.import_module(_ADAPTER_PACKAGES[spec.app.split(".")[0]])
execute_spec(plans["f3_4"][0])
execute_spec(plans["r1"][0])
print("numpy" in sys.modules)
"""

_REAL_ARRAY = """
import sys

from repro.upc import SharedArray, UpcProgram

prog = UpcProgram(threads=2)
before = "numpy" in sys.modules
SharedArray(prog, 8, backing="real")[3] = 1.5
print(before, "numpy" in sys.modules)
"""


def _probe(code: str) -> str:
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, env=env).stdout.strip()


def test_timing_runs_never_import_numpy():
    """CLI import, t3_2/r1/f3_4 planning, their adapter packages, one
    f3_4 paper point and one r1 quick point: NumPy stays unloaded."""
    assert _probe(_TIMING_RUNS) == "False"


def test_real_backed_array_imports_numpy():
    """Positive control: the probe can see NumPy load when arrays are
    computed."""
    assert _probe(_REAL_ARRAY) == "False True"
