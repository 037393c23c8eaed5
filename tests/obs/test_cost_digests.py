"""Pinned sha256 digests of the ``--profile`` cost JSON.

The cost profile charges every scheduled event to the layer that
scheduled it, by walking the host stack outward from the engine's push
site (``CostProfiler._scheduling_layer``).  A change in the frames
between a push and its caller (one wrapper more or less, a push moved
into another function) can move that attribution while every trace stays
byte-identical, so the trace digests cannot catch it; these can.  r1
covers UTS steals, AM rounds, retransmits and kills; t3_1 the STREAM
apps' local and remote streaming.  Each runs under two hash seeds.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DIGESTS = Path(__file__).parent / "golden" / "cost_digests.json"
SRC = Path(repro.__file__).resolve().parent.parent


@pytest.mark.parametrize("hashseed", ["0", "1"])
@pytest.mark.parametrize("eid", sorted(json.loads(DIGESTS.read_text())))
def test_cost_profile_is_byte_identical_to_pinned_digest(eid, hashseed, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
    subprocess.run(
        [sys.executable, "-m", "repro.harness", eid, "--scale", "quick",
         "--no-cache", "--profile", str(tmp_path / "prof"),
         "--out", str(tmp_path / "r.md")],
        check=True, capture_output=True, cwd=tmp_path, env=env,
    )
    cost = tmp_path / "prof" / f"{eid}-cost.json"
    digest = hashlib.sha256(cost.read_bytes()).hexdigest()
    pinned = json.loads(DIGESTS.read_text())[eid]
    assert digest == pinned, (
        f"the --profile cost JSON of {eid} --scale quick changed (sha256 "
        f"{digest}, pinned {pinned}).  Write the parent commit's profile "
        f"with `python -m repro.harness {eid} --scale quick --no-cache "
        f"--profile parent` and diff parent/{eid}-cost.json against {cost} "
        "to see which (phase, layer) rows moved.  Re-pin the digest in "
        "tests/obs/golden/cost_digests.json only for an intended change of "
        "attribution, and say why in CHANGES.md."
    )
