"""Resume-semantics acceptance tests: SIGKILL a campaign, finish it.

The interrupted run is a real CLI subprocess whose coordinator SIGKILLs
itself mid-campaign (chaos ``halt:after=N`` — deterministic, unlike
killing from outside on a timer).  The tests then assert, via the
journal, that ``--resume`` executes only the remaining points and that
the final report is byte-identical to an uninterrupted inline run.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def harness_cli(args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "repro.harness", *args],
        cwd=cwd, env=cli_env(), capture_output=True, text=True, timeout=300,
    )


def running(pid):
    """True while ``pid`` is a live process; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


def journal_events(journal_dir):
    files = list(Path(journal_dir).glob("*.jsonl"))
    assert len(files) == 1, f"expected one journal, got {files}"
    events = []
    for line in files[0].read_text().splitlines():
        try:
            events.append(json.loads(line))
        except ValueError:
            break
    return events


@pytest.fixture(scope="module")
def inline_report():
    from repro.harness.runner import run_experiment

    return run_experiment("t3_1", scale="quick", cache_dir=None).render()


class TestSigkillThenResume:
    def test_interrupted_campaign_resumes_byte_identical(self, tmp_path,
                                                         inline_report):
        journal_dir = tmp_path / "journals"
        # phase 1: the campaign SIGKILLs its own coordinator after 2 of
        # t3_1's 4 points are durably journaled
        proc = harness_cli(
            ["t3_1", "--no-cache", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--chaos", "halt:after=2"],
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        events = journal_events(journal_dir)
        done_before = [e["p"] for e in events if e.get("e") == "done"]
        assert len(done_before) == 2

        # phase 2: --resume finishes only the remaining points
        from repro.harness.runner import run_experiment

        result = run_experiment("t3_1", scale="quick", cache_dir=None,
                                resume=True, journal_dir=str(journal_dir),
                                jobs=2)
        assert result.render() == inline_report

        events = journal_events(journal_dir)
        resume_at = next(i for i, e in enumerate(events)
                         if e.get("e") == "resume")
        resumed = events[resume_at:]
        resumed_leases = sorted({e["p"] for e in resumed
                                 if e.get("e") == "lease"})
        resumed_done = sorted({e["p"] for e in resumed
                               if e.get("e") == "done"})
        expected = sorted(set(range(4)) - set(done_before))
        # only the unfinished points were leased and executed
        assert resumed_leases == expected
        assert resumed_done == expected

    def test_resume_via_cli_matches_inline(self, tmp_path, inline_report):
        journal_dir = tmp_path / "journals"
        proc = harness_cli(
            ["t3_1", "--no-cache", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--chaos", "halt:after=1"],
            cwd=tmp_path,
        )
        assert proc.returncode == -signal.SIGKILL
        out = tmp_path / "resumed.md"
        proc = harness_cli(
            ["t3_1", "--no-cache", "--resume", "--jobs", "2",
             "--journal-dir", str(journal_dir), "--out", str(out)],
            cwd=tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        # the written report is the rendered result plus a wall-time
        # line; everything but that line must match the inline render
        body = "\n".join(line for line in out.read_text().splitlines()
                         if not line.startswith("(wall time"))
        assert body.rstrip("\n") == inline_report

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_halted_coordinator_leaves_no_workers(self, tmp_path):
        # Popen rather than harness_cli: a worker outliving its
        # coordinator would hold the captured output pipes open
        journal_dir = tmp_path / "journals"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness", "t3_1", "--no-cache",
             "--jobs", "2", "--journal-dir", str(journal_dir),
             "--chaos", "halt:after=1"],
            cwd=tmp_path, env=cli_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        assert proc.wait(timeout=300) == -signal.SIGKILL
        pids = {e["pid"] for e in journal_events(journal_dir)
                if e.get("e") == "lease"}
        assert pids
        deadline = time.monotonic() + 5.0
        while any(running(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert [p for p in pids if running(p)] == []

    def test_chaos_kills_recover_without_resume(self, tmp_path,
                                                inline_report):
        # seeded worker SIGKILLs on first attempts: retries converge and
        # the report never shows a scar
        from repro.harness.runner import run_experiment

        result = run_experiment(
            "t3_1", scale="quick", cache_dir=None, jobs=2,
            chaos="kill:point=0,attempt=1;kill:point=3,attempt=1;seed=7",
            journal_dir=str(tmp_path / "journals"),
        )
        assert result.render() == inline_report
