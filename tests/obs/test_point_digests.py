"""Per-point trace digests for the experiments outside the whole-run oracle.

``test_trace_oracle.py`` pins whole ``--trace`` files, but t3_2, f3_3,
f4_4, f4_5 and f4_6 take 6-67 s to trace at quick scale.  Here the
cheapest point or two of each is traced alone through
``executor.run_point(spec, trace=True)`` and its exported trace is
hashed, so a mismatch names the point that moved.  f4_5 #0 is the MPI
model: MPI barriers go through ``Team.barrier``.  f4_6 #11, #15 and #19
run FT split-phase under the OpenMP, Cilk++ and thread-pool sub-thread
runtimes (4 sub-threads per UPC thread), so every ``SubthreadParams``
flavour and ``ForkJoinRuntime`` scheduling path is pinned; #20 is the
1-thread baseline.  t2_1 has no simulation points.  Every digest is computed in one fresh interpreter per hash
seed, so a trace that depends on hashed-key ordering fails here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DIGESTS = Path(__file__).parent / "golden" / "point_digests.json"
SRC = Path(repro.__file__).resolve().parent.parent

_PINNED = json.loads(DIGESTS.read_text())
_POINTS = [(eid, int(i)) for eid, pts in sorted(_PINNED.items()) for i in pts]

#: Prints ``{eid: {index: sha256}}`` for the points named in argv[1].
_DIGEST_SCRIPT = """
import hashlib, json, sys
from repro.harness.executor import run_point
from repro.harness.runner import get_experiment
from repro.obs.export import dump_chrome_trace

out = {}
for eid, indices in json.loads(sys.argv[1]).items():
    specs = list(get_experiment(eid).points("quick"))
    for i in indices:
        tracers = run_point(specs[int(i)], trace=True)["tracers"]
        text = dump_chrome_trace(tracers)
        out.setdefault(eid, {})[i] = hashlib.sha256(text.encode()).hexdigest()
print(json.dumps(out))
"""

_computed = {}


def _digests(hashseed):
    """All pinned points' digests under one hash seed (one subprocess)."""
    if hashseed not in _computed:
        wanted = {eid: list(pts) for eid, pts in _PINNED.items()}
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
        proc = subprocess.run(
            [sys.executable, "-c", _DIGEST_SCRIPT, json.dumps(wanted)],
            check=True, capture_output=True, text=True, env=env,
        )
        _computed[hashseed] = json.loads(proc.stdout)
    return _computed[hashseed]


@pytest.mark.parametrize("hashseed", ["0", "1"])
@pytest.mark.parametrize("eid,index", _POINTS, ids=[f"{e}#{i}" for e, i in _POINTS])
def test_point_trace_matches_pinned_digest(eid, index, hashseed):
    digest = _digests(hashseed)[eid][str(index)]
    pinned = _PINNED[eid][str(index)]
    assert digest == pinned, (
        f"the trace of {eid} --scale quick point #{index} changed (sha256 "
        f"{digest}, pinned {pinned}).  Dump the point's trace on the parent "
        "commit and on this tree with `dump_chrome_trace(run_point(spec, "
        "trace=True)['tracers'])` and compare them to find the first "
        "difference.  Re-pin tests/obs/golden/point_digests.json only for "
        "an intended behaviour change, and say why in CHANGES.md."
    )
