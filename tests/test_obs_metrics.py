"""Tests for the metrics registry (and the legacy perf shim over it)."""

import threading

import pytest

from repro.obs.metrics import MetricsRegistry


class TestCounters:
    def test_add_and_read(self):
        m = MetricsRegistry()
        m.add("x", 2)
        m.add("x")
        assert m.counter("x") == 3
        assert m.counter("never") == 0

    def test_inc_is_add(self):
        m = MetricsRegistry()
        m.inc("hits")
        m.inc("hits", 4)
        assert m.counter("hits") == 5


class TestGauges:
    def test_last_write_wins(self):
        m = MetricsRegistry()
        m.set_gauge("roster", 10)
        m.set_gauge("roster", 20)
        assert m.gauge("roster") == 20
        assert m.gauge("missing", default=-1) == -1


class TestHistograms:
    def test_aggregates(self):
        m = MetricsRegistry()
        for v in (3.0, 1.0, 2.0):
            m.observe("view", v)
        hist = m.histogram("view")
        assert hist["count"] == 3
        assert hist["total"] == 6.0
        assert hist["min"] == 1.0
        assert hist["max"] == 3.0
        assert hist["mean"] == pytest.approx(2.0)
        assert m.histogram("none") is None

    def test_order_independent(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        values = [5.0, 0.5, 2.5, 9.0]
        for v in values:
            a.observe("h", v)
        for v in reversed(values):
            b.observe("h", v)
        assert a.histogram("h") == b.histogram("h")


class TestTimerExceptionSafety:
    """Regression: a raising ``timed`` block must not corrupt the registry."""

    def test_raising_block_still_records(self):
        m = MetricsRegistry()
        with pytest.raises(ValueError):
            with m.timed("risky"):
                raise ValueError("boom")
        assert m.timer_calls("risky") == 1
        assert m.timer_seconds("risky") >= 0.0
        assert m.counter("risky.errors") == 1
        assert m.open_timers() == 0

    def test_clean_block_has_no_error_counter(self):
        m = MetricsRegistry()
        with m.timed("fine"):
            pass
        assert m.timer_calls("fine") == 1
        assert m.counter("fine.errors") == 0
        assert m.open_timers() == 0

    def test_nested_raising_blocks_all_close(self):
        m = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with m.timed("outer"):
                with m.timed("inner"):
                    raise RuntimeError("deep")
        assert m.timer_calls("outer") == 1
        assert m.timer_calls("inner") == 1
        assert m.counter("outer.errors") == 1
        assert m.counter("inner.errors") == 1
        assert m.open_timers() == 0

    def test_reentrant_same_name(self):
        m = MetricsRegistry()
        with m.timed("same"):
            with m.timed("same"):
                pass
            assert m.open_timers() == 1
        assert m.open_timers() == 0
        assert m.timer_calls("same") == 2


class TestSnapshots:
    def test_snapshot_keeps_legacy_shape(self):
        m = MetricsRegistry()
        m.add("c", 1)
        with m.timed("t"):
            pass
        snap = m.snapshot()
        assert snap["counters"] == {"c": 1}
        assert snap["timers"]["t"]["calls"] == 1
        assert "seconds" in snap["timers"]["t"]
        assert snap["gauges"] == {}
        assert snap["histograms"] == {}

    def test_deterministic_snapshot_excludes_timers(self):
        m = MetricsRegistry()
        m.add("c", 1)
        m.set_gauge("g", 2)
        m.observe("h", 3)
        with m.timed("wall"):
            pass
        det = m.deterministic_snapshot()
        assert set(det) == {"counters", "gauges", "histograms"}
        assert det["counters"] == {"c": 1}
        assert det["gauges"] == {"g": 2}
        assert det["histograms"]["h"]["count"] == 1

    def test_reset_prefix(self):
        m = MetricsRegistry()
        m.add("net.retries", 3)
        m.add("campaign.participants", 5)
        m.reset("net.")
        assert m.counter("net.retries") == 0
        assert m.counter("campaign.participants") == 5
        m.reset()
        assert m.counter("campaign.participants") == 0


class TestThreadSafety:
    def test_concurrent_adds_sum(self):
        m = MetricsRegistry()

        def work():
            for _ in range(500):
                m.add("n")
                m.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert m.counter("n") == 2000
        assert m.histogram("h")["count"] == 2000


class TestPerfShim:
    """The historical counter/timer surface lives on MetricsRegistry."""

    def test_legacy_surface_still_present(self):
        m = MetricsRegistry()
        m.add("legacy", 1)
        with m.timed("legacy.block"):
            pass
        snap = m.snapshot()
        assert snap["counters"]["legacy"] == 1
        assert snap["timers"]["legacy.block"]["calls"] == 1
