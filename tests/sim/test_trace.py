"""Unit tests for StatsCollector."""

import pytest

from repro.sim import Simulator, StatsCollector


@pytest.fixture
def sim():
    return Simulator()


class TestCounters:
    def test_count_and_get(self):
        st = StatsCollector()
        st.count("steals")
        st.count("steals", 4)
        assert st.get_count("steals") == 5
        assert st.get_count("missing") == 0

    def test_add_and_get_sum(self):
        st = StatsCollector()
        st.add("bytes", 100.0)
        st.add("bytes", 50.0)
        assert st.get_sum("bytes") == pytest.approx(150.0)

    def test_record_series(self):
        st = StatsCollector()
        st.record("lat", 1.0)
        st.record("lat", 3.0)
        assert st.series == {"lat": [1.0, 3.0]}


class TestTimers:
    def test_timer_accumulates_sim_time(self, sim):
        st = StatsCollector(sim)

        def proc(sim, st):
            st.timer_enter("phase", key=0)
            yield sim.delay(2.0)
            st.timer_exit("phase", key=0)
            yield sim.delay(1.0)
            st.timer_enter("phase", key=0)
            yield sim.delay(3.0)
            st.timer_exit("phase", key=0)

        sim.spawn(proc(sim, st))
        sim.run()
        assert st.timer_total("phase", key=0) == pytest.approx(5.0)

    def test_timer_max_across_keys(self, sim):
        st = StatsCollector(sim)

        def proc(sim, st, key, dur):
            st.timer_enter("p", key=key)
            yield sim.delay(dur)
            st.timer_exit("p", key=key)

        sim.spawn(proc(sim, st, 0, 2.0))
        sim.spawn(proc(sim, st, 1, 7.0))
        sim.run()
        assert st.timer_max("p") == pytest.approx(7.0)
        assert st.timer_total("p", key=Ellipsis) == pytest.approx(9.0)

    def test_timer_exit_returns_elapsed(self, sim):
        st = StatsCollector(sim)
        elapsed = []

        def proc(sim, st):
            st.timer_enter("fft", 3)
            yield sim.delay(4.0)
            elapsed.append(st.timer_exit("fft", 3))

        sim.spawn(proc(sim, st))
        sim.run()
        assert elapsed == [pytest.approx(4.0)]
        assert st.timer_total("fft", key=3) == pytest.approx(4.0)

    def test_double_enter_rejected(self, sim):
        st = StatsCollector(sim)
        st.timer_enter("x")
        with pytest.raises(ValueError, match="already open"):
            st.timer_enter("x")

    def test_exit_without_enter_rejected(self, sim):
        st = StatsCollector(sim)
        with pytest.raises(ValueError, match="not opened"):
            st.timer_exit("nope")

    def test_timer_without_sim_rejected(self):
        st = StatsCollector()
        with pytest.raises(ValueError, match="Simulator"):
            st.timer_enter("x")
