"""Fixture programs for the flow-sensitive rules (PGAS009-012).

Each bad fixture fires exactly its rule; the corrected twin is silent.
The PGAS010 misaligned-barrier fixture is additionally *executed* under
the dynamic sanitizer, confirming the static finding describes a real
runtime deadlock (static and dynamic analyzers agree).
"""

import pytest

from repro.analyze.static import analyze_source
from repro.analyze.static.baseline import compare, load_baseline
from repro.analyze.static.report import build_report, to_json
from repro.errors import UpcError
from repro.obs.session import instrument
from tests.upc.conftest import make_program


def rules_of(source, path="fixture.py"):
    return [f.rule for f in analyze_source(source, path).findings]


# -- PGAS010: collective alignment ------------------------------------

#: Statically flagged AND dynamically deadlocks: thread 0 enters the
#: barrier, the rest never do.
MISALIGNED_BARRIER = (
    "def main(upc):\n"
    "    me = upc.MYTHREAD\n"
    "    if me == 0:\n"
    "        yield from upc.barrier()\n"
    "    else:\n"
    "        yield from upc.compute(0.0)\n"
)


class TestAlignment:
    def test_barrier_under_thread_dependent_branch(self):
        findings = analyze_source(MISALIGNED_BARRIER, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS010"]
        assert "me == 0" in findings[0].message

    def test_corrected_twin_silent(self):
        src = (
            "def main(upc):\n"
            "    me = upc.MYTHREAD\n"
            "    if me == 0:\n"
            "        yield from upc.compute(0.0)\n"
            "    yield from upc.barrier()\n"
        )
        assert rules_of(src) == []

    def test_dynamic_sanitizer_confirms_static_finding(self):
        # the statically-flagged fixture really deadlocks at runtime and
        # the dynamic collective checker explains it the same way
        ns = {}
        exec(compile(MISALIGNED_BARRIER, "fix.py", "exec"), ns)
        with instrument("test", sanitize=True) as session:
            prog = make_program(threads=2)
            with pytest.raises(UpcError, match="deadlock"):
                prog.run(ns["main"])
        collective = [f for f in session.findings
                      if f.checker == "collective"]
        assert len(collective) == 1
        assert "never completed" in collective[0].message

    def test_loop_with_thread_dependent_trip_count(self):
        src = (
            "def main(upc):\n"
            "    for _ in range(upc.MYTHREAD):\n"
            "        yield from upc.barrier()\n"
        )
        assert rules_of(src) == ["PGAS010"]

    def test_uniform_trip_count_silent(self):
        src = (
            "def main(upc):\n"
            "    for _ in range(upc.THREADS):\n"
            "        yield from upc.barrier()\n"
        )
        assert rules_of(src) == []

    def test_collective_through_helper_call(self):
        src = (
            "def sync(upc):\n"
            "    yield from upc.barrier()\n"
            "def main(upc):\n"
            "    if upc.MYTHREAD == 0:\n"
            "        yield from sync(upc)\n"
        )
        findings = analyze_source(src, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS010"]
        assert "sync()" in findings[0].message

    def test_forall_affinity_loop_is_thread_dependent(self):
        src = (
            "from repro.upc import forall\n"
            "def main(upc, arr, n):\n"
            "    for i in forall.indices(upc, 0, n, affinity=arr):\n"
            "        yield from upc.barrier()\n"
        )
        assert rules_of(src) == ["PGAS010"]


# -- PGAS011: privatization candidates --------------------------------

class TestPrivatization:
    def test_affinity_loop_element_access(self):
        src = (
            "from repro.upc import forall\n"
            "def main(upc, arr, n):\n"
            "    total = 0\n"
            "    for i in forall.indices(upc, 0, n, affinity=arr):\n"
            "        v = yield from arr.read_elem(upc, i)\n"
            "        total += v\n"
            "    return total\n"
        )
        findings = analyze_source(src, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS011"]
        assert "LocalPointer" in findings[0].message

    def test_privatized_twin_silent(self):
        src = (
            "from repro.upc import forall\n"
            "from repro.upc.pointers import SharedPointer\n"
            "def main(upc, arr, n):\n"
            "    total = 0\n"
            "    for i in forall.indices(upc, 0, n, affinity=arr):\n"
            "        ptr = SharedPointer(arr, i).privatize(upc)\n"
            "        v = yield from ptr.get(upc)\n"
            "        total += v\n"
            "    return total\n"
        )
        assert rules_of(src) == []

    def test_can_cast_guard_without_privatized_flag(self):
        src = (
            "def main(upc, dst, n):\n"
            "    if upc.can_cast(dst):\n"
            "        yield from upc.memput(dst, n)\n"
        )
        assert rules_of(src) == ["PGAS011"]

    def test_can_cast_guard_with_privatized_flag_silent(self):
        src = (
            "def main(upc, dst, n):\n"
            "    if upc.can_cast(dst):\n"
            "        yield from upc.memput(dst, n, privatized=True)\n"
        )
        assert rules_of(src) == []

    def test_runtime_layer_exempt(self):
        src = (
            "def main(upc, dst, n):\n"
            "    if upc.can_cast(dst):\n"
            "        yield from upc.memput(dst, n)\n"
        )
        assert rules_of(src, "repro/upc/runtime.py") == []


# -- PGAS012: loop-invariant remote accesses --------------------------

class TestHoisting:
    def test_invariant_memget_in_loop(self):
        src = (
            "def main(upc, owner, n, reps):\n"
            "    acc = 0\n"
            "    for _ in range(reps):\n"
            "        v = yield from upc.memget(owner, n)\n"
            "        acc += v\n"
            "    return acc\n"
        )
        findings = analyze_source(src, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS012"]
        assert "hoist" in findings[0].message

    def test_variant_memget_silent(self):
        src = (
            "def main(upc, owners, n, reps):\n"
            "    acc = 0\n"
            "    for r in range(reps):\n"
            "        v = yield from upc.memget(owners[r], n)\n"
            "        acc += v\n"
            "    return acc\n"
        )
        assert rules_of(src) == []

    def test_repeated_can_cast_same_args(self):
        src = (
            "def main(upc, v, n):\n"
            "    if upc.can_cast(v):\n"
            "        yield from upc.compute(0.0)\n"
            "    yield from upc.memget(v, n, privatized=upc.can_cast(v))\n"
        )
        findings = analyze_source(src, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS012"]
        assert "already queried" in findings[0].message

    def test_hoisted_can_cast_silent(self):
        src = (
            "def main(upc, v, n):\n"
            "    castable = upc.can_cast(v)\n"
            "    if castable:\n"
            "        yield from upc.compute(0.0)\n"
            "    yield from upc.memget(v, n, privatized=castable)\n"
        )
        assert rules_of(src) == []

    def test_affinity_closure_called_per_iteration(self):
        src = (
            "def main(upc, peers, nbytes, reps):\n"
            "    handles = []\n"
            "    def issue(ctx):\n"
            "        for dst in peers:\n"
            "            handles.append(\n"
            "                ctx.memput_nb(dst, nbytes,\n"
            "                              privatized=ctx.can_cast(dst)))\n"
            "    for _ in range(reps):\n"
            "        yield from upc.compute(0.0)\n"
            "        issue(upc)\n"
        )
        findings = analyze_source(src, "fix.py").findings
        assert "PGAS012" in [f.rule for f in findings]
        assert any("pointer-table" in f.message for f in findings)


# -- PGAS009 + noqa mechanics -----------------------------------------

class TestNoqa:
    def test_known_rule_suppressed_and_counted(self):
        src = (
            "def main(upc):\n"
            "    me = upc.MYTHREAD\n"
            "    if me == 0:\n"
            "        yield from upc.barrier()  # noqa: PGAS010\n"
        )
        result = analyze_source(src, "fix.py")
        assert result.findings == []
        assert result.suppressed == 1

    def test_unknown_pgas_id_flagged(self):
        src = "x = 1  # noqa: PGAS999\n"
        findings = analyze_source(src, "fix.py").findings
        assert [f.rule for f in findings] == ["PGAS009"]
        assert "PGAS999" in findings[0].message

    def test_other_tools_ids_pass_through(self):
        src = "import os  # noqa: E402, BLE001\n"
        assert rules_of(src) == []

    def test_wrong_rule_id_does_not_suppress(self):
        src = (
            "def main(upc):\n"
            "    me = upc.MYTHREAD\n"
            "    if me == 0:\n"
            "        yield from upc.barrier()  # noqa: PGAS011\n"
        )
        # PGAS011 is a known id, so no PGAS009 — but it names the wrong
        # rule, so the PGAS010 finding survives
        assert rules_of(src) == ["PGAS010"]


# -- report determinism ------------------------------------------------

class TestDeterminism:
    def test_report_bytes_identical_across_runs(self):
        sources = [MISALIGNED_BARRIER,
                   "x = 1  # noqa: PGAS999\n"]

        def render():
            docs = []
            for i, src in enumerate(sources):
                result = analyze_source(src, f"fix{i}.py")
                docs.append(to_json(build_report(result)))
            return "".join(docs)

        assert render() == render()

    def test_check_gate_roundtrip(self, tmp_path):
        from repro.analyze.static.__main__ import main as cli

        bad = tmp_path / "prog.py"
        bad.write_text(MISALIGNED_BARRIER, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        # no baseline yet: --check is a usage error
        assert cli([str(bad), "--check",
                    "--baseline", str(baseline)]) == 2
        # accept the debt, then the gate is green
        assert cli([str(bad), "--update-baseline",
                    "--baseline", str(baseline)]) == 0
        assert cli([str(bad), "--check", "--baseline", str(baseline)]) == 0
        # fixing the bug makes the entry stale: the ratchet clicks
        bad.write_text("def main(upc):\n    yield from upc.barrier()\n",
                       encoding="utf-8")
        assert cli([str(bad), "--check", "--baseline", str(baseline)]) == 1
        diff = compare(analyze_source("def main(upc):\n"
                                      "    yield from upc.barrier()\n",
                                      str(bad)).findings,
                       load_baseline(baseline))
        assert not diff.new and diff.stale
