"""Checks of the end-to-end benchmark in ``benchmarks/e2e``.

The benchmark itself takes minutes; these tests cover its parts that
decide what a number means (the layer map, the golden comparator, the
quartile helpers, ``BENCHMARK.json``) plus one smoke run of every child
mode on ``f4_2 --scale quick``, which takes a few seconds.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "benchmarks" / "e2e"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import run as bench  # noqa: E402

PACKAGE_DIR = str(ROOT / "src" / "repro")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- layer map --------------------------------------------------------------

def test_every_repro_module_maps_to_a_named_layer():
    modules = sorted((ROOT / "src" / "repro").rglob("*.py"))
    assert modules
    for path in modules:
        layer = layers.layer_of(str(path), PACKAGE_DIR)
        assert layer in layers.LAYERS, path
        assert layer not in (layers.HOST_OTHER, layers.HOST_IMPORT), path


def test_module_rules_pick_the_module_before_its_package():
    def of(relative):
        return layers.layer_of(f"{PACKAGE_DIR}/{relative}", PACKAGE_DIR)

    assert of("sim/rng.py") == "sim.rng"
    assert of("sim/__init__.py") == "sim.engine"
    assert of("apps/uts/tree.py") == "apps.uts"
    assert of("apps/stream/twisted.py") == "apps.other"
    assert of("gasnet/core.py") == "gasnet"


def test_importlib_frame_charges_the_sample_to_host_import():
    engine = layers.layer_of(f"{PACKAGE_DIR}/sim/engine.py", PACKAGE_DIR)
    bootstrap = layers.layer_of("<frozen importlib._bootstrap>", PACKAGE_DIR)
    harness = layers.layer_of(f"{PACKAGE_DIR}/harness/runner.py", PACKAGE_DIR)
    assert bootstrap == layers.HOST_IMPORT
    # module-level code of an import in progress, called from the harness
    assert layers.owner([engine, bootstrap, harness]) == layers.HOST_IMPORT


def test_stdlib_frames_are_charged_to_their_repro_caller():
    numpy = layers.layer_of("/usr/lib/python3/site-packages/numpy/fft.py",
                            PACKAGE_DIR)
    rng = layers.layer_of(f"{PACKAGE_DIR}/sim/rng.py", PACKAGE_DIR)
    harness = layers.layer_of(f"{PACKAGE_DIR}/harness/runner.py", PACKAGE_DIR)
    assert numpy is None
    assert layers.owner([numpy, rng, harness]) == "sim.rng"
    assert layers.owner([None, None]) == layers.HOST_OTHER


# -- golden comparator ------------------------------------------------------

def test_comparator_strips_only_the_trailing_wall_time_line():
    golden = (ROOT / "tests" / "harness" / "golden" / "f4_2.md").read_text()
    cli = golden + "\n(wall time 0.6s)\n"
    assert bench.strip_wall_time(cli) == golden
    assert bench.strip_wall_time(golden) == golden
    # a wall-time line anywhere else is report content, not stripped
    inner = "(wall time 1.0s)\n" + golden
    assert bench.strip_wall_time(inner) == inner
    # any other difference survives the strip
    changed = golden.replace("Shape check: OK", "Shape check: FAIL")
    assert bench.strip_wall_time(changed + "\n(wall time 0.6s)\n") != golden


# -- statistics -------------------------------------------------------------

def test_quartiles_median_and_iqr():
    values = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]
    assert bench.quartiles(values) == (2.5, 7.5)
    # the exclusive method extrapolates past two points: 2.5 and 5.5
    assert bench.quartiles([5.0, 3.0]) == (2.5, 5.5)
    assert bench.quartiles([4.2]) == (4.2, 4.2)
    row = bench.summarize({"report_s": values, "x": [1.0]},
                          {"report_s": "s", "setup_s": "s"})
    assert set(row) == {"report_s"}  # undeclared and unmeasured: left out
    assert (row["report_s"]["median"], row["report_s"]["iqr"],
            row["report_s"]["n"]) == (5.0, 5.0, 9)


# -- BENCHMARK.json ---------------------------------------------------------

def test_benchmark_json_follows_the_schema():
    doc = spec()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"][1:] == ["benchmarks/e2e/run.py"]
    assert doc["paths"] == ["benchmarks/e2e", "tests/bench"]
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60

    workloads = doc["workloads"]
    assert 2 <= len(workloads) <= 8
    assert [w["name"] for w in workloads] == list(bench.WORKLOADS)
    for w in workloads:
        assert set(w) == {"name", "why"}
        assert "\n" not in w["why"] and len(w["why"]) <= 200

    e2e, per_layer = doc["end_to_end"], doc["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(per_layer) <= 128
    names = [m["name"] for m in e2e + per_layer + workloads]
    assert len(names) == len(set(names))
    for m in e2e + per_layer:
        assert NAME.match(m["name"]), m
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("higher", "lower"), m
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25, m
    for m in per_layer:
        assert set(m) == {"name", "unit", "better"}

    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)


def test_every_layer_has_a_self_time_metric():
    declared = {m["name"] for m in spec()["per_layer"]}
    assert {f"{layer}.self_s" for layer in layers.LAYERS} <= declared


# -- smoke run of every child mode -----------------------------------------

def test_smoke_run_of_every_child_mode(tmp_path):
    workload = bench.Workload(
        "smoke_f4_2", "f4_2", "quick",
        ROOT / "tests" / "harness" / "golden" / "f4_2.md")
    runs = bench.WorkloadRuns(workload)
    for mode in ("setup", "timed", "sampled", "traced"):
        run = bench.run_child(workload, mode, tmp_path, timeout_s=120.0)
        assert run.problem is None, run.problem
        runs.runs.append(run)
    assert list(tmp_path.iterdir()) == []  # each run cleans up after itself

    doc = spec()
    units = {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}
    summary = bench.summarize(bench.metric_values(runs), units)
    assert set(summary) == set(units)
    assert summary["apps.points"]["median"] == 10
    assert summary["engine.events_popped"]["median"] > 0
    assert summary["bench.samples"]["median"] > 0
    timed = runs.ok("timed")[0]
    assert 0 < timed.sidecar["spans_s"]["sim_run"] \
        <= timed.sidecar["spans_s"]["execute_spec"] \
        <= timed.sidecar["spans_s"]["campaign"] < timed.wall_s
    self_total = sum(summary[f"{layer}.self_s"]["median"]
                     for layer in layers.LAYERS)
    assert self_total == pytest.approx(runs.ok("sampled")[0].sidecar["cpu_s"])


def test_golden_mismatch_is_reported(tmp_path):
    workload = bench.Workload(
        "smoke_wrong_golden", "f4_2", "quick",
        ROOT / "tests" / "harness" / "golden" / "t3_1.md")
    run = bench.run_child(workload, "timed", tmp_path, timeout_s=120.0)
    assert run.exit_code == 0
    assert run.problem == "timed report differs from t3_1.md"


def test_benchmark_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec()["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "uts_steal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "missing" in proc.stderr
