"""Unit tests for the span/instant/counter recorder."""

import pytest

from repro.obs import names
from repro.obs.tracer import Tracer, link_track, thread_track
from repro.sim import Simulator


class TestTracer:
    def _tracer(self):
        sim = Simulator()
        return sim, Tracer(sim, label="t", run_index=1)

    def test_span_records_interval(self):
        sim, tr = self._tracer()
        sid = tr.begin(thread_track(0), "work", names.CAT_COMPUTE)
        sim.schedule_at(2.5, lambda: None)
        sim.run()
        tr.end(sid)
        (span,) = tr.spans
        assert span.t0 == 0.0 and span.t1 == 2.5
        assert span.duration == 2.5
        assert span.category == names.CAT_COMPUTE

    def test_double_end_raises(self):
        _, tr = self._tracer()
        sid = tr.begin(thread_track(0), "work")
        tr.end(sid)
        with pytest.raises(ValueError, match="already ended"):
            tr.end(sid)

    def test_end_after_finalize_is_tolerated(self):
        # Generators torn down after the run re-run their finally
        # clauses; their end() must not raise on finalize-closed spans.
        _, tr = self._tracer()
        sid = tr.begin(thread_track(0), "work")
        tr.finalize(5.0)
        tr.end(sid)
        assert tr.spans[0].t1 == 5.0

    def test_end_merges_args(self):
        _, tr = self._tracer()
        sid = tr.begin(thread_track(0), "b", args={"a": 1})
        tr.end(sid, args={"releaser": 3})
        assert tr.spans[0].args == {"a": 1, "releaser": 3}

    def test_finalize_closes_open_spans(self):
        _, tr = self._tracer()
        open_sid = tr.begin(thread_track(0), "open")
        closed_sid = tr.begin(thread_track(0), "closed")
        tr.end(closed_sid)
        tr.finalize(7.0)
        assert tr.spans[open_sid].t1 == 7.0
        assert tr.spans[closed_sid].t1 == 0.0
        assert tr.end_time == 7.0

    def test_tracks_keep_declaration_order(self):
        _, tr = self._tracer()
        tr.declare_track(thread_track(1))
        tr.declare_track(link_track("nic.tx0"))
        tr.declare_track(thread_track(0))
        assert list(tr.tracks) == [
            thread_track(1), link_track("nic.tx0"), thread_track(0)
        ]
        assert tr.thread_tracks() == [thread_track(1), thread_track(0)]
        assert tr.link_tracks() == [link_track("nic.tx0")]

    def test_comm_matrix_sorted_and_accumulated(self):
        _, tr = self._tracer()
        tr.comm(1, 0, 10.0)
        tr.comm(0, 1, 100.0)
        tr.comm(0, 1, 24.0)
        assert tr.comm_matrix() == [
            {"src_node": 0, "dst_node": 1, "messages": 2, "bytes": 124.0},
            {"src_node": 1, "dst_node": 0, "messages": 1, "bytes": 10.0},
        ]

    def test_kill_emits_fault_instant(self):
        sim = Simulator()
        tr = Tracer(sim, label="t")
        sim.tracer = tr

        def forever():
            yield sim.delay(100.0)

        p = sim.spawn(forever(), name="victim")
        sim.schedule_at(1.0, p.kill)
        sim.run()
        kills = [i for i in tr.instants if i.name == "kill victim"]
        assert len(kills) == 1
        assert kills[0].category == names.CAT_FAULT


class TestSpanned:
    """``Tracer.spanned`` wraps one generator body in one span."""

    def _run(self, body_fn, kill_at=None):
        sim = Simulator()
        tr = Tracer(sim, label="t")
        sim.tracer = tr
        out = {}

        def proc():
            try:
                out["value"] = yield from tr.spanned(
                    body_fn(sim), thread_track(0), "op", names.CAT_NETWORK,
                    args={"peer": 1},
                )
            except KeyError as exc:
                out["error"] = exc

        p = sim.spawn(proc(), name="worker")
        if kill_at is not None:
            sim.schedule_at(kill_at, p.kill)
        sim.schedule_at(0.5, lambda: out.setdefault("open", tr.spans[0].t1))
        sim.run()
        (span,) = tr.spans
        assert span.name == "op" and span.args == {"peer": 1}
        assert span.category == names.CAT_NETWORK
        assert out.pop("open") is None  # still open mid-body
        return span, out

    @staticmethod
    def _body(sim, fail=False):
        yield sim.delay(1.0)
        if fail:
            raise KeyError("boom")
        yield sim.delay(1.0)
        return 42

    def test_returns_body_value_and_closes(self):
        span, out = self._run(self._body)
        assert out == {"value": 42}
        assert (span.t0, span.t1) == (0.0, 2.0)

    def test_closes_when_body_raises(self):
        span, out = self._run(lambda sim: self._body(sim, fail=True))
        assert isinstance(out["error"], KeyError)
        assert (span.t0, span.t1) == (0.0, 1.0)

    def test_closes_at_kill_instant(self):
        span, out = self._run(self._body, kill_at=1.5)
        assert out == {}
        # no finalize ran: the finally of spanned closed it at the kill
        assert (span.t0, span.t1) == (0.0, 1.5)

    def test_opens_at_first_step(self):
        sim = Simulator()
        tr = Tracer(sim, label="t")
        wrapped = tr.spanned(self._body(sim), thread_track(0), "op")
        assert tr.spans == []
        sim.schedule_at(3.0, lambda: sim.spawn(wrapped))
        sim.run()
        (span,) = tr.spans
        assert (span.t0, span.t1) == (3.0, 5.0)
