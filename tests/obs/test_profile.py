"""The engine profiling subsystem: the layer map, both profilers, reports, CLI.

The contracts under test are the ones DESIGN.md §13 promises: every
module of the package has a layer, the host sampler charges samples
only to those layers and leaves the process's SIGPROF state as it found
it, and cost-profile *tallies* are pure functions of the simulation, so
identical programs yield identical bytes.
"""

import json
import signal
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.obs import names
from repro.obs.analytics import canonical_dumps
from repro.obs.profile import (
    HOST_IMPORT,
    HOST_OTHER,
    LAYERS,
    NO_PHASE,
    PROFILE_SCHEMA,
    CostProfiler,
    HostSampler,
    cost_document,
    folded_lines,
    host_document,
    merge_snapshots,
    validate_profile,
    write_profiles,
)
from repro.obs.profile import cost
from repro.obs.profile.__main__ import main as profile_main
from repro.obs.profile.layers import PACKAGE_DIR, file_layer
from repro.obs.session import arm, instrument
from repro.sim.engine import OFF, Process, Simulator
from repro.upc.runtime import UpcProgram


def _app(upc):
    upc.stats.timer_enter("work", upc.MYTHREAD)
    yield from upc.compute(1e-6)
    yield from upc.memput((upc.MYTHREAD + 1) % upc.THREADS, 1 << 14)
    upc.stats.timer_exit("work", upc.MYTHREAD)
    yield from upc.barrier()


def _run_profiled(threads=4):
    with instrument("test", profile=True) as session:
        UpcProgram(threads=threads).run(_app)
        return session.snapshot()


class TestLayers:
    def test_every_repro_module_maps_to_a_named_layer(self):
        modules = sorted(Path(PACKAGE_DIR).rglob("*.py"))
        assert len(modules) > 100
        for path in modules:
            layer = file_layer(str(path))
            assert layer in LAYERS, path
            assert layer not in (HOST_IMPORT, HOST_OTHER), path

    def test_equal_code_objects_from_two_files_keep_their_layers(self):
        inside = compile("pass", f"{PACKAGE_DIR}/gasnet/snippet.py", "exec")
        outside = compile("pass", "/elsewhere/snippet.py", "exec")
        assert inside == outside  # why code objects cannot be the key
        prof = CostProfiler()
        for code in (inside, outside):
            prof.context_switch(SimpleNamespace(gen=SimpleNamespace(gi_code=code)))
        assert prof.tallies[(NO_PHASE, "gasnet")] == [0, 0, 1]
        assert prof.tallies[(NO_PHASE, HOST_OTHER)] == [0, 0, 1]


class TestCostProfiler:
    def test_phase_bucketing(self):
        prof = CostProfiler()
        assert prof.current_phase == NO_PHASE
        prof.phase_started("warm")
        prof.event_scheduled(lambda: None, costed=True)
        prof.phase_ended("warm")
        prof.event_scheduled(lambda: None, costed=False)
        # the test file is outside repro/, so attribution falls through
        # the stack walk to the callback's own layer: host.other
        assert prof.tallies[("warm", HOST_OTHER)] == [1, 1, 0]
        assert prof.tallies[(NO_PHASE, HOST_OTHER)] == [1, 0, 0]

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
        assert prof.tallies[(NO_PHASE, HOST_OTHER)] == [0, 0, 1]


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
        layers = {row[1] for row in snap["cost"]}
        assert "work" in phases, "the app's phase timer must bucket work"
        assert layers <= set(LAYERS)
        # compute on a core, the put's wire time, the engine's own
        # wakeups, and the job base's spawns of the thread processes
        assert {"sim.resources", "network", "sim.engine", "gasnet"} <= layers

    def test_engine_wakeups_stay_in_the_engine(self, monkeypatch):
        """The walk stops at the engine loop, so a ``Process._step``
        wakeup with only engine frames below it is charged to the engine,
        not to the launcher that called ``Simulator.run``."""
        fallbacks = []
        code_layer = cost._code_layer

        def spy(code):
            layer = code_layer(code)
            if code is Process._step.__code__:
                fallbacks.append(layer)
            return layer

        monkeypatch.setattr(cost, "_code_layer", spy)
        snap = _run_profiled(threads=4)
        assert fallbacks and set(fallbacks) == {"sim.engine"}
        engine = sum(row[2] for row in snap["cost"] if row[1] == "sim.engine")
        assert engine >= len(fallbacks)

    def test_host_samples_land_in_layers(self):
        with instrument("test", profile=True) as session:
            # a tick-driven timer needs a few ms of CPU per sample
            deadline = time.process_time() + 10.0
            while not session.host.counts and time.process_time() < deadline:
                UpcProgram(threads=4).run(_app)
        rows = session.snapshot()["host"]
        assert rows, "a profiled run must take at least one sample"
        for layer, samples, self_s in rows:
            assert layer in LAYERS
            assert samples > 0 and self_s >= 0

    def test_sampler_disarmed_and_handler_restored(self):
        def installed(signum, frame):
            pass

        previous = signal.signal(signal.SIGPROF, installed)
        try:
            with instrument("ok", profile=True):
                assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is installed
            with pytest.raises(ZeroDivisionError):
                with instrument("raises", profile=True):
                    1 / 0
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
            assert signal.getsignal(signal.SIGPROF) is installed
        finally:
            signal.signal(signal.SIGPROF, previous)

    def test_outer_sampler_timer_rearmed(self):
        def outer(signum, frame):
            pass

        previous = signal.signal(signal.SIGPROF, outer)
        # a period of CPU minutes never fires inside the test
        signal.setitimer(signal.ITIMER_PROF, 600.0, 600.0)
        try:
            with instrument("nested", profile=True):
                assert signal.getitimer(signal.ITIMER_PROF)[1] < 1.0
            delay, interval = signal.getitimer(signal.ITIMER_PROF)
            assert interval == 600.0 and delay > 0.0
            assert signal.getsignal(signal.SIGPROF) is outer
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
            signal.signal(signal.SIGPROF, previous)

    def test_handler_installed_outside_python_falls_back_to_ignore(
            self, monkeypatch):
        # signal.signal returns None for a handler a C library installed
        real = signal.signal
        calls = []

        def from_c(signum, handler):
            calls.append(handler)
            old = real(signum, handler)
            return None if len(calls) == 1 else old

        previous = signal.getsignal(signal.SIGPROF)
        monkeypatch.setattr(signal, "signal", from_c)
        try:
            with instrument("c-handler", profile=True):
                pass
            assert signal.getsignal(signal.SIGPROF) == signal.SIG_IGN
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        finally:
            real(signal.SIGPROF, previous)


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
    def _snap(self, phase="work", layer="upc", events=3, cycles=2, switches=1,
              host_layer="upc", samples=10, self_s=0.04):
        return {"host": [[host_layer, samples, self_s]],
                "cost": [[phase, layer, events, cycles, switches]]}

    def test_merge_skips_none_and_sums(self):
        host, cost, runs = merge_snapshots(
            [self._snap(), None, self._snap(cycles=5)])
        assert runs == 2
        assert host["upc"] == [20, 0.08]
        assert cost[("work", "upc")] == [6, 7, 2]

    def test_empty_host_path_renders_as_other(self):
        # a sample whose stack holds no repro frame (this test's own)
        sampler = HostSampler()
        sampler._on_sample(signal.SIGPROF, sys._getframe())
        sampler.cpu_s = 0.004
        doc = host_document("x", merge_snapshots(
            [{"host": sampler.rows()}])[0], runs=1)
        assert doc["layers"] == [{"layer": HOST_OTHER,
                                  names.PROF_HOST_SAMPLES: 1,
                                  names.PROF_HOST_SELF_S: 0.004}]
        assert validate_profile(doc) == []

    def test_top_ranks_by_deterministic_weight(self):
        host, cost, runs = merge_snapshots(
            [self._snap(), self._snap(layer="network", cycles=9,
                                      host_layer="network", samples=99)])
        hdoc = host_document("x", host, runs)
        assert hdoc["top"][0] == ["network", 99]
        cdoc = cost_document("x", cost, runs)
        assert cdoc["top"][0] == ["network", 9]

    def test_folded_lines_host_and_cost(self):
        host, cost, runs = merge_snapshots([self._snap()])
        hdoc = host_document("x", host, runs)
        assert folded_lines(hdoc) == ["upc 10"]
        cdoc = cost_document("x", cost, runs)
        assert folded_lines(cdoc) == [
            "cycles;work;upc 2", "events;work;upc 3", "switches;work;upc 1"]

    def test_folded_skips_zero_weights(self):
        host, cost, runs = merge_snapshots(
            [self._snap(events=0, cycles=0, switches=0, samples=0)])
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
        bad["phases"][0]["layer"] = "made.up"
        assert any("unknown layer" in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(good))
        bad["phases"][0][names.PROF_COST_CYCLES] = -1
        assert any(names.PROF_COST_CYCLES in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(good))
        bad["top"] = [["made.up", 1]]
        assert any("top[0]" in p for p in validate_profile(bad))
        host_doc = host_document("x", host, runs)
        assert validate_profile(host_doc) == []
        bad = json.loads(canonical_dumps(host_doc))
        bad["layers"][0]["layer"] = "engine.switch"  # a retired site name
        assert any("unknown layer" in p for p in validate_profile(bad))
        bad = json.loads(canonical_dumps(host_doc))
        bad["layers"][0][names.PROF_HOST_SELF_S] = -0.5
        assert any(names.PROF_HOST_SELF_S in p for p in validate_profile(bad))

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
            [{"host": [["upc", 10, 0.04]],
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
        host_json = next(str(p) for p in written if p.name == "x-host.json")
        assert profile_main(["top", host_json]) == 0
        assert capsys.readouterr().out.startswith(
            "# x [host] runs=1 weight=samples")

    def test_top_on_invalid_doc_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": 99}')
        assert profile_main(["top", str(bad)]) == 2
