"""The exact behaviour oracle: pinned sha256 digests of ``--trace`` output.

A trace records every span, instant and counter sample of a run at full
float precision, so a byte-identical trace is the strongest evidence
that a refactor or speedup did not change behaviour.  The five
experiments cover the fabric's processor-sharing pipes (f3_4), the
multi-link microbenchmark (f4_2), UTS under injected faults (r1), the
STREAM apps (t3_1) and the sub-thread layer under hybrid placement
(t4_1).
Each runs under two hash seeds, so a trace that depends on set or dict
ordering of hashed keys fails here too.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

DIGESTS = Path(__file__).parent / "golden" / "trace_digests.json"
SRC = Path(repro.__file__).resolve().parent.parent


@pytest.mark.parametrize("hashseed", ["0", "1"])
@pytest.mark.parametrize("eid", sorted(json.loads(DIGESTS.read_text())))
def test_trace_is_byte_identical_to_pinned_digest(eid, hashseed, tmp_path):
    trace = tmp_path / f"{eid}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": hashseed}
    subprocess.run(
        [sys.executable, "-m", "repro.harness", eid, "--scale", "quick",
         "--no-cache", "--trace", str(trace), "--out", str(tmp_path / "r.md")],
        check=True, capture_output=True, cwd=tmp_path, env=env,
    )
    digest = hashlib.sha256(trace.read_bytes()).hexdigest()
    pinned = json.loads(DIGESTS.read_text())[eid]
    assert digest == pinned, (
        f"the --trace output of {eid} --scale quick changed (sha256 "
        f"{digest}, pinned {pinned}).  Write the parent commit's trace with "
        f"`python -m repro.harness {eid} --scale quick --no-cache --trace "
        f"parent.json` and `cmp parent.json {trace}` to find the first "
        "difference.  Re-pin the digest in tests/obs/golden/"
        "trace_digests.json only for an intended behaviour change, and say "
        "why in CHANGES.md."
    )
