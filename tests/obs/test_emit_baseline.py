"""Baseline selection in ``benchmarks/emit_baseline.py``.

The perf gate compares against "the newest" committed baseline.  After a
git checkout every file has the same mtime, so newest must come from the
baselines' own ``generated`` stamps, not from the filesystem.
"""

import importlib.util
import json
import os
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "emit_baseline.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("emit_baseline", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory, rev, generated, mtime):
    path = directory / f"BENCH_{rev}.json"
    path.write_text(json.dumps({"schema": 1, "rev": rev,
                                "generated": generated, "experiments": {}}))
    os.utime(path, (mtime, mtime))
    return path


def test_newest_generated_wins_whatever_the_mtimes(tmp_path):
    find_baseline = _load_script().find_baseline
    # the newest stamp gets the oldest mtime, the oldest stamp the newest
    _write(tmp_path, "aaa", "2026-08-08T22:26:27Z", mtime=1_000)
    _write(tmp_path, "bbb", "2026-08-08T20:43:16Z", mtime=3_000)
    _write(tmp_path, "ccc", "2026-08-08T21:39:59Z", mtime=2_000)
    assert find_baseline(tmp_path).name == "BENCH_aaa.json"


def test_equal_mtimes_still_pick_by_generated(tmp_path):
    find_baseline = _load_script().find_baseline
    for rev, generated in (("zzz", "2026-01-01T00:00:00Z"),
                           ("mmm", "2026-03-01T00:00:00Z"),
                           ("aaa", "2026-02-01T00:00:00Z")):
        _write(tmp_path, rev, generated, mtime=5_000)
    assert find_baseline(tmp_path).name == "BENCH_mmm.json"


def test_explicit_file_is_returned_as_is(tmp_path):
    find_baseline = _load_script().find_baseline
    path = _write(tmp_path, "old", "2020-01-01T00:00:00Z", mtime=1)
    _write(tmp_path, "new", "2026-01-01T00:00:00Z", mtime=2)
    assert find_baseline(path) == path
