"""Wall-clock layer spans, recorded from outside the program.

A traced repetition replaces each layer's public boundary (a method or a
module-level function) with a wrapper that opens a span on entry and closes
it on exit, and puts every original back afterwards. Spans keep name,
start, end, parent and a trace id; they stay in memory until the run ends.

A span's *self time* is its duration minus the part of it that its child
spans cover, so a recursive boundary (``PageArtifactCache.get_or_build``
building an iframe through itself) is counted once, not once per level.
Summed over every span under one root, self times add up to the root's
duration exactly; the root's own self time is the unattributed remainder.

The benchmark runs every workload single-threaded (serial executor), so a
single span stack is enough to find each span's parent.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

ROOT_LAYER = "unattributed"


class Span:
    """One timed call at a layer boundary."""

    __slots__ = ("span_id", "parent_id", "layer", "op", "start", "end", "trace_id")

    def __init__(self, span_id, parent_id, layer, op, start, end, trace_id):
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.op = op
        self.start = start
        self.end = end
        self.trace_id = trace_id

    def as_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.layer,
            "op": self.op,
            "start": self.start,
            "end": self.end,
            "trace": self.trace_id,
        }


class SpanRecorder:
    """Collects spans in memory; ``trace_id`` tags every span opened next."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.trace_id = ""
        self._stack: List[Span] = []

    def open(self, layer: str, op: str = "") -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            len(self.spans), parent, layer, op, self.clock(), None, self.trace_id
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(
                f"span {span.layer}:{span.op} closed out of order "
                f"(innermost open span is {top.layer}:{top.op})"
            )

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Self time of every span, aligned with ``spans``."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None:
            children.setdefault(span.parent_id, []).append((span.start, span.end))
    return [
        (span.end - span.start)
        - _covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    ]


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0


def layer_totals(spans: Sequence[Span], key=lambda span: span.layer) -> Dict[str, LayerTotals]:
    """Calls and summed self time per ``key(span)`` (the layer by default)."""
    totals: Dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(key(span), LayerTotals())
        entry.calls += 1
        entry.self_s += own
    return totals


# -- boundaries ----------------------------------------------------------------


@dataclass(frozen=True)
class Boundary:
    """A layer's public entry point: ``module.owner.name`` or ``module.name``.

    ``trace_from`` (methods only) names an attribute path on the instance
    whose value becomes the recorder's trace id when the boundary is entered
    (the participant's worker id at ``BrowserExtension.run_test``).
    """

    layer: str
    module: str
    owner: Optional[str]
    name: str
    trace_from: Optional[str] = None


#: Every layer the benchmark attributes time to, at its public boundary.
#: ``computed_style`` is too hot to wrap, so the cascade is part of
#: ``render.layout``. The judge is wrapped where the benchmark passes it in.
BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("core.campaign", "repro.core.campaign", "Campaign", "run_with_workers"),
    Boundary("core.campaign.conclude", "repro.core.campaign", "Campaign", "conclude"),
    Boundary("core.aggregator", "repro.core.aggregator", "Aggregator", "prepare"),
    Boundary(
        "core.extension", "repro.core.extension", "BrowserExtension", "run_test",
        trace_from="worker.worker_id",
    ),
    Boundary("render.artifacts", "repro.render.artifacts", "PageArtifactCache", "get_or_build"),
    Boundary("html.parser", "repro.html.parser", None, "parse_html"),
    Boundary("render.layout", "repro.render.layout", "LayoutEngine", "layout"),
    Boundary("render.replay", "repro.render.replay", None, "compute_reveal_times"),
    Boundary("net.simnet", "repro.net.simnet", "Client", "request"),
    Boundary("net.http", "repro.net.http", "HttpServer", "handle"),
    Boundary("core.server", "repro.net.http", "Router", "dispatch"),
    *(
        Boundary("storage.documentstore", "repro.storage.documentstore", "Collection", op)
        for op in ("insert_one", "find_one", "find", "count", "distinct")
    ),
    *(
        Boundary("store.sharded", "repro.store.sharded", "ShardedCollection", op)
        for op in ("insert_one", "find_one", "find", "count")
    ),
    Boundary("store.wal", "repro.store.wal", "WriteAheadLog", "append"),
    Boundary("store.stream", "repro.store.stream", "StreamingCampaignState", "ingest"),
    Boundary("store.stream", "repro.store.stream", "StreamingCampaignState", "conclude"),
    Boundary("core.quality", "repro.core.quality", "QualityControl", "apply"),
    Boundary("core.analysis", "repro.core.analysis", None, "analyze_responses"),
    Boundary("core.adaptive", "repro.core.adaptive", "AdaptiveScheduler", "next_pair"),
    Boundary("core.adaptive", "repro.core.adaptive", "AdaptiveScheduler", "report"),
    Boundary("core.btmodel", "repro.core.btmodel", None, "fit_bradley_terry"),
)

JUDGE_LAYER = "crowd.judgment"

#: Layer names in report order (the judge has no boundary in ``repro``).
LAYERS: Tuple[str, ...] = (
    "core.campaign", "core.campaign.conclude", "core.aggregator", "core.extension",
    JUDGE_LAYER, "render.artifacts", "html.parser", "render.layout", "render.replay",
    "net.simnet", "net.http", "core.server", "storage.documentstore", "store.sharded",
    "store.wal", "store.stream", "core.quality", "core.analysis", "core.adaptive",
    "core.btmodel",
)


def _resolve(instance, path: str):
    for part in path.split("."):
        instance = getattr(instance, part)
    return instance


def span_wrapper(recorder: SpanRecorder, layer: str, op: str, func,
                 trace_from: Optional[str] = None):
    """``func`` timed as one span of ``layer``; with ``trace_from`` (a method)
    the span and everything after it carry the instance's trace id."""
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        if trace_from is not None:
            recorder.trace_id = str(_resolve(args[0], trace_from))
        span = recorder.open(layer, op)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close(span)
    return wrapper


_ABSENT = object()


class Patches:
    """Installs boundary wrappers and puts every original back.

    A method is replaced on its class (a subclass that only inherited it
    gets its own attribute, deleted again on restore). A module-level
    function is replaced in every loaded ``repro`` module that bound it by
    name, since ``from m import f`` copies the reference.
    """

    def __init__(self):
        self._undo: List[Tuple[object, str, object]] = []

    def wrap_method(self, cls, name: str, make_wrapper) -> None:
        own = cls.__dict__.get(name, _ABSENT)
        setattr(cls, name, make_wrapper(getattr(cls, name)))
        self._undo.append((cls, name, own))

    def wrap_function(self, module_name: str, name: str, make_wrapper) -> None:
        original = getattr(sys.modules[module_name], name)
        wrapper = make_wrapper(original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def restore(self) -> None:
        while self._undo:
            target, name, original = self._undo.pop()
            if original is _ABSENT:
                delattr(target, name)
            else:
                setattr(target, name, original)


def install(recorder: SpanRecorder, boundaries: Sequence[Boundary] = BOUNDARIES) -> Patches:
    """Wrap every boundary; the caller must ``restore()`` the result."""
    patches = Patches()
    try:
        for b in boundaries:
            module = importlib.import_module(b.module)
            if b.owner is None:
                patches.wrap_function(
                    b.module, b.name,
                    lambda f, b=b: span_wrapper(recorder, b.layer, b.name, f),
                )
            else:
                patches.wrap_method(
                    getattr(module, b.owner), b.name,
                    lambda f, b=b: span_wrapper(
                        recorder, b.layer, b.name, f, b.trace_from
                    ),
                )
    except BaseException:
        patches.restore()
        raise
    return patches


class TracedJudge:
    """The judge callable the benchmark passes in, timed as ``crowd.judgment``."""

    def __init__(self, judge, recorder: SpanRecorder):
        self.judge = judge
        self.recorder = recorder

    def __call__(self, *args, **kwargs):
        span = self.recorder.open(JUDGE_LAYER, "judge")
        try:
            return self.judge(*args, **kwargs)
        finally:
            self.recorder.close(span)
