"""The e2e benchmark's copy of the layer map agrees with the package's.

``benchmarks/e2e/layers.py`` names the benchmark's per-layer metrics;
``repro.obs.profile.layers`` names the ``--profile`` rows.  Until the
benchmark imports the package's map, the two copies must not drift.
"""

import importlib.util
import json
from pathlib import Path

from repro.obs.profile import layers

BENCH_LAYERS = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "layers.py"


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_e2e_layers", BENCH_LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_and_package_layer_maps_agree():
    bench = _bench_layers()
    assert bench.LAYERS == layers.LAYERS
    files = [str(path) for path in sorted(Path(layers.PACKAGE_DIR).rglob("*.py"))]
    files += ["<frozen importlib._bootstrap>", json.__file__]
    for filename in files:
        assert (bench.layer_of(filename, layers.PACKAGE_DIR)
                == layers.layer_of(filename, layers.PACKAGE_DIR)), filename
