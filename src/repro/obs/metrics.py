"""Metrics registry: counters, gauges, histograms and wall-clock timers.

This is the quantitative half of the observability layer (the qualitative
half — nested spans — lives in :mod:`repro.obs.tracing`).
:class:`MetricsRegistry` has the plain counter/timer surface (``add`` /
``counter`` / ``timed`` / ``timer_seconds`` / ``timer_calls`` /
``snapshot`` / ``reset``) and adds:

* **gauges** — last-written named values (``set_gauge("campaign.roster", 20)``);
* **histograms** — order-independent aggregates (count / total / min / max)
  of *virtual-time* or size observations, safe to compare bit-for-bit across
  parallelism levels because merging observations is commutative;
* **exception-safe timers** — a raising ``timed`` block still records its
  elapsed time and call, increments ``<name>.errors``, and never leaks an
  open timer (:meth:`open_timers` is the regression hook).

Wall-clock timers are inherently nondeterministic, so
:meth:`deterministic_snapshot` exports only the sections (counters, gauges,
histograms) that are bit-identical for a fixed seed at any parallelism —
the contract the end-to-end trace tests pin.

All operations are thread-safe (the parallel participant mode reports from
worker threads) and cheap enough for per-call hot-path use: one lock
acquisition and a dict update.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction
from typing import Dict, List, Optional


class _TimedBlock:
    """Context manager for one ``timed`` block.

    Implemented as a real class (not ``@contextmanager``) so the close-out
    runs in ``__exit__`` even when the body raises: the elapsed time and call
    are recorded either way, an ``<name>.errors`` counter marks the failed
    block, and the open-timer count returns to its pre-block value.
    """

    __slots__ = ("_registry", "_name", "_start")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_TimedBlock":
        self._registry._open_timer(self._name)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = time.perf_counter() - self._start
        self._registry._close_timer(self._name, elapsed, error=exc_type is not None)
        return False  # never swallow the exception


class MetricsRegistry:
    """Thread-safe named counters, gauges, histograms and timers."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        # name -> [count, total, min, max]
        self._histograms: Dict[str, List[float]] = {}
        # name -> [accumulated_seconds, calls]
        self._timers: Dict[str, list] = {}
        # name -> number of currently-open timed blocks
        self._open: Dict[str, int] = {}

    # -- counters -----------------------------------------------------------

    def add(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    #: Alias for :meth:`add` under the conventional metrics verb.
    inc = add

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges -------------------------------------------------------------

    def set_gauge(self, name: str, value: float) -> None:
        """Record the latest value of gauge ``name``."""
        with self._lock:
            self._gauges[name] = value

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Last value written to gauge ``name`` (``default`` when never set)."""
        with self._lock:
            return self._gauges.get(name, default)

    # -- histograms ---------------------------------------------------------

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into histogram ``name``.

        Only order-free aggregates are kept (count/total/min/max), so the
        histogram is identical no matter what order concurrent participants
        report in — the property the cross-parallelism trace test relies on.
        The total is accumulated as an exact rational (float addition is not
        associative, so a plain running sum would differ in the last bit
        between a serial and a threaded run) and converted back to a float
        only at snapshot time.
        """
        value = float(value)
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                self._histograms[name] = [1, Fraction(value), value, value]
            else:
                entry[0] += 1
                entry[1] += Fraction(value)
                entry[2] = min(entry[2], value)
                entry[3] = max(entry[3], value)

    def histogram(self, name: str) -> Optional[dict]:
        """Aggregates of histogram ``name`` (None when never observed)."""
        with self._lock:
            entry = self._histograms.get(name)
            if entry is None:
                return None
            count, total, low, high = entry
            total = float(total)
            return {
                "count": count,
                "total": total,
                "min": low,
                "max": high,
                "mean": total / count if count else 0.0,
            }

    # -- timers -------------------------------------------------------------

    def timed(self, name: str) -> _TimedBlock:
        """Accumulate the wall-clock time of the ``with`` body under ``name``.

        Exception-safe: a raising body still records its elapsed time and
        call count, and additionally increments the ``<name>.errors``
        counter — no timer is ever left open.
        """
        return _TimedBlock(self, name)

    def _open_timer(self, name: str) -> None:
        with self._lock:
            self._open[name] = self._open.get(name, 0) + 1

    def _close_timer(self, name: str, elapsed: float, error: bool) -> None:
        with self._lock:
            remaining = self._open.get(name, 0) - 1
            if remaining > 0:
                self._open[name] = remaining
            else:
                self._open.pop(name, None)
            entry = self._timers.setdefault(name, [0.0, 0])
            entry[0] += elapsed
            entry[1] += 1
            if error:
                self._counters[name + ".errors"] = (
                    self._counters.get(name + ".errors", 0) + 1
                )

    def timer_seconds(self, name: str) -> float:
        """Accumulated seconds under timer ``name`` (0.0 when never used)."""
        with self._lock:
            entry = self._timers.get(name)
            return entry[0] if entry else 0.0

    def timer_calls(self, name: str) -> int:
        """Number of completed ``timed`` blocks under ``name``."""
        with self._lock:
            entry = self._timers.get(name)
            return entry[1] if entry else 0

    def open_timers(self) -> int:
        """Number of ``timed`` blocks currently open (leak detector)."""
        with self._lock:
            return sum(self._open.values())

    # -- lifecycle ----------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-ready copy of every section.

        The ``counters`` / ``timers`` keys keep their original shape (the
        benchmark reports read them); ``gauges`` / ``histograms`` are
        additive.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "timers": {
                    name: {"seconds": entry[0], "calls": entry[1]}
                    for name, entry in self._timers.items()
                },
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "count": entry[0],
                        "total": float(entry[1]),
                        "min": entry[2],
                        "max": entry[3],
                    }
                    for name, entry in self._histograms.items()
                },
            }

    def deterministic_snapshot(self) -> dict:
        """Only the sections that are bit-identical at any parallelism.

        Wall-clock timers are excluded: elapsed real time legitimately
        differs between a serial and a threaded run of the same seed.
        """
        snap = self.snapshot()
        return {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
            "histograms": snap["histograms"],
        }

    # -- cross-process merge --------------------------------------------------

    def export_state(self) -> dict:
        """A picklable, *exact* copy of every section.

        Unlike :meth:`snapshot`, histogram totals stay :class:`~fractions.
        Fraction` — the process fan-out ships each chunk's registry back to
        the parent, and converting to float before the merge would reorder
        the float additions and break bit-identicality with the serial run.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                # [count, Fraction total, min, max] — exact rationals survive
                # the pickle round trip.
                "histograms": {
                    name: list(entry) for name, entry in self._histograms.items()
                },
                "timers": {
                    name: list(entry) for name, entry in self._timers.items()
                },
            }

    def merge_state(self, state: dict) -> None:
        """Fold an :meth:`export_state` delta into this registry.

        Counters and histogram aggregates merge commutatively (sum / sum /
        min / max), so merging chunk registries in any order reproduces the
        registry a single-process run would have built. Gauges are
        last-write-wins (the participant phase writes none, so this only
        matters for ad-hoc use). Timers accumulate wall-clock time; they are
        excluded from :meth:`deterministic_snapshot` anyway.
        """
        with self._lock:
            for name, amount in state.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + amount
            self._gauges.update(state.get("gauges", {}))
            for name, entry in state.get("histograms", {}).items():
                count, total, low, high = entry
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = [count, Fraction(total), low, high]
                else:
                    mine[0] += count
                    mine[1] += Fraction(total)
                    mine[2] = min(mine[2], low)
                    mine[3] = max(mine[3], high)
            for name, entry in state.get("timers", {}).items():
                seconds, calls = entry
                mine = self._timers.setdefault(name, [0.0, 0])
                mine[0] += seconds
                mine[1] += calls

    def reset(self, prefix: Optional[str] = None) -> None:
        """Clear every section (or only the names under ``prefix``)."""
        with self._lock:
            if prefix is None:
                self._counters.clear()
                self._gauges.clear()
                self._histograms.clear()
                self._timers.clear()
                self._open.clear()
                return
            for store in (self._counters, self._gauges, self._histograms,
                          self._timers, self._open):
                for name in [n for n in store if n.startswith(prefix)]:
                    del store[name]


#: The process-global default registry. Components fall back to it when no
#: campaign-scoped registry is injected.
GLOBAL_METRICS = MetricsRegistry()
