"""The engine profiling subsystem: sites, both profilers, reports, CLI.

The determinism contracts under test are the ones DESIGN.md §13 promises:
host-profile *call counts* and cost-profile *tallies* are pure functions
of the simulation, so identical programs yield identical rankings (host)
and identical bytes (cost); wall nanoseconds are auxiliary and jitter.
"""

import json

import pytest

from repro.obs import names
from repro.obs.analytics import canonical_dumps
from repro.obs.profile import (
    KNOWN_SITES,
    NO_PHASE,
    PROFILE_SCHEMA,
    SITE_OTHER,
    CostProfiler,
    cost_document,
    folded_lines,
    host_document,
    merge_snapshots,
    site_for_callable,
    site_for_code,
    validate_profile,
    write_profiles,
)
from repro.obs.profile.__main__ import main as profile_main
from repro.obs.session import arm, instrument
from repro.sim.engine import OFF, Simulator
from repro.upc.runtime import UpcProgram


def _app(upc):
    timer = upc.stats.phase("work", key=upc.MYTHREAD).start()
    yield from upc.compute(1e-6)
    yield from upc.memput((upc.MYTHREAD + 1) % upc.THREADS, 1 << 14)
    timer.stop()
    yield from upc.barrier()


def _run_profiled(threads=4):
    with instrument("test", profile=True) as session:
        UpcProgram(threads=threads).run(_app)
        return session.snapshot()


class TestSites:
    def test_engine_functions_split_by_name(self):
        assert site_for_code(Simulator.schedule_at.__code__) == "engine.heap.push"
        assert site_for_code(Simulator.run.__code__) == "engine.run"

    def test_layer_rules_match_path_fragments(self):
        code = compile("pass", "/x/src/repro/gasnet/core.py", "exec")
        assert site_for_code(code) == "gasnet"
        code = compile("pass", "/x/src/repro/apps/randomaccess/bench.py", "exec")
        assert site_for_code(code) == "app.gups"

    def test_stdlib_and_synthetic_frames_transparent(self):
        assert site_for_code(json.dumps.__code__) is None
        assert site_for_code(compile("pass", "<string>", "exec")) is None

    def test_callable_fallback_never_none(self):
        assert site_for_callable(len) == SITE_OTHER
        assert site_for_callable(json.dumps) == SITE_OTHER
        sched = Simulator().schedule_at
        assert site_for_callable(sched) == "engine.heap.push"

    def test_every_resolvable_site_is_known(self):
        assert SITE_OTHER in KNOWN_SITES
        assert list(KNOWN_SITES) == sorted(set(KNOWN_SITES))

    def test_resolution_is_cached_and_stable(self):
        code = Simulator.schedule_at.__code__
        assert site_for_code(code) is site_for_code(code)


class TestCostProfiler:
    def test_phase_bucketing(self):
        prof = CostProfiler()
        assert prof.current_phase == NO_PHASE
        prof.phase_started("warm")
        prof.event_scheduled(lambda: None, costed=True)
        prof.phase_ended("warm")
        prof.event_scheduled(lambda: None, costed=False)
        # the test file is outside repro/, so attribution falls through
        # the stack walk to the callback's own site: host.other
        assert prof.tallies[("warm", SITE_OTHER)] == [1, 1, 0]
        assert prof.tallies[(NO_PHASE, SITE_OTHER)] == [1, 0, 0]

    def test_interleaved_phase_ends_remove_matching_entry(self):
        prof = CostProfiler()
        prof.phase_started("a")
        prof.phase_started("b")
        prof.phase_ended("a")   # parallel threads end out of order
        assert prof.current_phase == "b"
        prof.phase_ended("b")
        assert prof.current_phase == NO_PHASE

    def test_context_switch_attributes_to_generator(self):
        prof = CostProfiler()

        class FakeProcess:
            gen = _app(None)

        prof.context_switch(FakeProcess())
        assert prof.tallies[(NO_PHASE, SITE_OTHER)] == [0, 0, 1]


class TestEndToEndDeterminism:
    def test_cost_snapshot_byte_identical_across_runs(self):
        _run_profiled()  # warmup: settle lazy imports
        a = _run_profiled()
        b = _run_profiled()
        assert canonical_dumps(a["cost"]) == canonical_dumps(b["cost"])
        assert a["cost"], "a real run must charge cost tallies"

    def test_cost_sites_and_phases_are_curated(self):
        snap = _run_profiled()
        phases = {row[0] for row in snap["cost"]}
        sites = {row[1] for row in snap["cost"]}
        assert "work" in phases, "the app's phase timer must bucket work"
        assert sites <= set(KNOWN_SITES)
        assert "upc" in sites

    def test_host_call_counts_reproduce_across_runs(self):
        _run_profiled()  # warmup
        a = _run_profiled()
        b = _run_profiled()
        calls_a = [(tuple(row[0]), row[1]) for row in a["host"]]
        calls_b = [(tuple(row[0]), row[1]) for row in b["host"]]
        assert calls_a == calls_b
        assert any(calls for _, calls in calls_a)

    def test_host_paths_are_site_paths(self):
        snap = _run_profiled()
        for row in snap["host"]:
            assert all(site in KNOWN_SITES for site in row[0])


class TestSession:
    def test_profiler_off_outside_session(self):
        sim = Simulator()
        arm(sim, "x", 2)
        assert sim.profiler is OFF

    def test_profiler_shared_inside_session(self):
        with instrument("s", profile=True) as session:
            a, b = Simulator(), Simulator()
            arm(a, "a", 2)
            arm(b, "b", 2)
            assert a.profiler is b.profiler is session.cost
            assert a.tracer is OFF

    def test_sessions_do_not_nest(self):
        with instrument("outer", profile=True):
            with pytest.raises(RuntimeError, match="already active"):
                with instrument("inner", profile=True):
                    pass

    def test_constructed_program_attaches_session_profiler(self):
        with instrument("s", profile=True) as session:
            program = UpcProgram(threads=2)
            assert program.sim.profiler is session.cost
        assert UpcProgram(threads=2).sim.profiler is OFF


class TestReport:
    def _snap(self, phase="work", site="upc", events=3, cycles=2, switches=1,
              host_path=("upc",), calls=10, wall_ns=5000):
        return {"host": [[list(host_path), calls, wall_ns]],
                "cost": [[phase, site, events, cycles, switches]]}

    def test_merge_skips_none_and_sums(self):
        host, cost, runs = merge_snapshots(
            [self._snap(), None, self._snap(cycles=5)])
        assert runs == 2
        assert host[("upc",)] == [20, 10000]
        assert cost[("work", "upc")] == [6, 7, 2]

    def test_empty_host_path_renders_as_other(self):
        doc = host_document("x", {(): [0, 123]}, runs=1)
        assert doc["stacks"][0]["stack"] == [SITE_OTHER]
        assert validate_profile(doc) == []

    def test_top_ranks_by_deterministic_weight(self):
        host, cost, runs = merge_snapshots(
            [self._snap(), self._snap(site="fabric", cycles=9,
                                      host_path=("upc", "fabric"), calls=99)])
        hdoc = host_document("x", host, runs)
        assert hdoc["top"][0] == ["fabric", 99]
        cdoc = cost_document("x", cost, runs)
        assert cdoc["top"][0] == ["fabric", 9]

    def test_folded_lines_host_and_cost(self):
        host, cost, runs = merge_snapshots([self._snap()])
        hdoc = host_document("x", host, runs)
        assert folded_lines(hdoc) == ["upc 10"]
        cdoc = cost_document("x", cost, runs)
        assert folded_lines(cdoc) == [
            "cycles;work;upc 2", "events;work;upc 3", "switches;work;upc 1"]

    def test_folded_skips_zero_weights(self):
        host, cost, runs = merge_snapshots(
            [self._snap(events=0, cycles=0, switches=0, calls=0)])
        assert folded_lines(host_document("x", host, runs)) == []
        assert folded_lines(cost_document("x", cost, runs)) == []

    def test_validate_catches_each_defect(self):
        host, cost, runs = merge_snapshots([self._snap()])
        good = cost_document("x", cost, runs)
        assert validate_profile(good) == []
        assert validate_profile("nope") == ["document is not an object"]
        bad = dict(good, schema=PROFILE_SCHEMA + 1)
        assert any("schema" in p for p in validate_profile(bad))
        bad = dict(good, mode="wat")
        assert any("mode" in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(good))
        bad["phases"][0]["site"] = "made.up"
        assert any("unknown site" in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(good))
        bad["phases"][0][names.PROF_COST_CYCLES] = -1
        assert any(names.PROF_COST_CYCLES in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(good))
        bad["top"] = [["made.up", 1]]
        assert any("top[0]" in p for p in validate_profile(bad))

    def test_write_profiles_emits_canonical_pairs(self, tmp_path):
        written = write_profiles(tmp_path, "lbl", [self._snap(), None])
        assert [p.name for p in written] == [
            "lbl-host.json", "lbl-host.folded",
            "lbl-cost.json", "lbl-cost.folded"]
        for path in written:
            if path.suffix == ".json":
                doc = json.loads(path.read_text())
                assert validate_profile(doc) == []
                assert doc["runs"] == 1
                assert path.read_text() == canonical_dumps(doc)


class TestCli:
    def _write(self, tmp_path):
        return write_profiles(
            tmp_path, "x",
            [{"host": [[["upc"], 10, 5000]],
              "cost": [["work", "upc", 3, 2, 1]]}])

    def test_validate_ok(self, tmp_path, capsys):
        written = self._write(tmp_path)
        jsons = [str(p) for p in written if p.suffix == ".json"]
        assert profile_main(["validate"] + jsons) == 0
        out = capsys.readouterr().out
        assert out.count(": ok (") == 2

    def test_validate_rejects_bad_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 1, "mode": "wat"}')
        assert profile_main(["validate", str(bad)]) == 2
        assert "mode" in capsys.readouterr().out

    def test_top_is_ranked_and_diffable(self, tmp_path, capsys):
        written = self._write(tmp_path)
        cost_json = next(str(p) for p in written if p.name == "x-cost.json")
        assert profile_main(["top", cost_json, "-n", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# x [cost] runs=1 weight=cycles")
        assert "  1  upc" in out

    def test_top_on_invalid_doc_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        assert profile_main(["top", str(bad)]) == 2
