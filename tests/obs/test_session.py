"""Unit tests for instrumentation-session scoping: one session, one arm()."""

import os
import subprocess
import sys

import pytest

import repro
from repro.analyze.sanitizer import Sanitizer
from repro.mpi.comm import MpiProgram
from repro.obs.profile.cost import CostProfiler
from repro.obs.session import arm, instrument
from repro.obs.tracer import Tracer
from repro.sim import Simulator
from repro.sim.engine import OFF
from repro.upc.runtime import UpcProgram


class TestOffSink:
    def test_fresh_simulator_shares_one_off_sink(self):
        sim = Simulator()
        assert sim.tracer is sim.sanitizer is sim.profiler is OFF
        assert not OFF.enabled
        defined = [n for n in dir(type(OFF)) if not n.startswith("__")]
        assert defined == ["enabled"]

    def test_unguarded_hook_call_raises(self):
        with pytest.raises(AttributeError):
            Simulator().tracer.begin(("thread", 0), "x")

    def test_importing_the_kernel_loads_no_instrumentation(self):
        probe = (
            "import sys, repro.sim; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('repro.analyze', 'repro.obs.profile'))))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True, env=env).stdout
        assert out.strip() == "[]"


class TestTracerFor:
    """How a session picks the tracer of each program it covers."""

    def test_null_without_session(self):
        sim = Simulator()
        arm(sim, "x", 2)
        assert sim.tracer is OFF
        assert UpcProgram(threads=2).sim.tracer is OFF

    def test_real_tracer_inside_session(self):
        with instrument("s", trace=True) as sess:
            sim = Simulator()
            arm(sim, "x", 2)
            tr = sim.tracer
            assert isinstance(tr, Tracer) and tr.enabled
            assert tr.thread_tracks() == [("thread", 0), ("thread", 1)]
            assert sess.tracers == [tr]
            assert sim.sanitizer is sim.profiler is OFF

    def test_run_indices_sequential(self):
        with instrument("s", trace=True) as sess:
            a, b = Simulator(), Simulator()
            arm(a, "a", 2)
            arm(b, "b", 2)
        assert (a.tracer.run_index, b.tracer.run_index) == (1, 2)
        assert [t.label for t in sess.tracers] == ["a", "b"]

    def test_nesting_rejected(self):
        with instrument("outer", trace=True):
            with pytest.raises(RuntimeError, match="already active"):
                with instrument("inner", profile=True):
                    pass

    def test_session_cleared_after_error(self):
        with pytest.raises(KeyError):
            with instrument("s", trace=True):
                raise KeyError("boom")
        sim = Simulator()
        arm(sim, "x", 2)
        assert sim.tracer is OFF


class TestOneArmingCall:
    def test_upc_program_gets_all_three(self):
        with instrument("x", trace=True, sanitize=True, profile=True) as sess:
            sim = UpcProgram(threads=2).sim
        assert isinstance(sim.tracer, Tracer)
        assert isinstance(sim.sanitizer, Sanitizer)
        assert isinstance(sim.profiler, CostProfiler)
        assert sim.profiler is sess.cost
        assert sess.tracers == [sim.tracer]
        assert sess.sanitizers == [sim.sanitizer]

    def test_mpi_program_is_traced_and_profiled_only(self):
        with instrument("x", trace=True, sanitize=True, profile=True) as sess:
            sim = MpiProgram(ranks=2).sim
        assert isinstance(sim.tracer, Tracer)
        assert sim.profiler is sess.cost
        assert sim.sanitizer is OFF
        assert sess.sanitizers == []
