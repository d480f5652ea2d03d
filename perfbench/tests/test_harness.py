"""Tests for the benchmark harness itself (not the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

import measure
import run
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def _record(ticks, script):
    """Replay ``script`` (a list of ("open", layer) / ("close",)) on a fake clock."""
    recorder = spans.SpanRecorder(clock=FakeClock(ticks))
    stack = []
    for step in script:
        if step[0] == "open":
            stack.append(recorder.open(step[1]))
        else:
            recorder.close(stack.pop())
    return recorder.spans


# -- self-time arithmetic ------------------------------------------------------


def test_self_time_nested_and_recursive():
    # root [0,10] > art [1,6] > art [2,5] (recursive) > parse [3,4]; root > layout [7,9]
    recorded = _record(
        [0, 1, 2, 3, 4, 5, 6, 7, 9, 10],
        [("open", "root"), ("open", "art"), ("open", "art"), ("open", "parse"),
         ("close",), ("close",), ("close",), ("open", "layout"), ("close",), ("close",)],
    )
    assert spans.self_times(recorded) == [3, 2, 2, 1, 2]
    totals = spans.layer_totals(recorded)
    assert totals["art"].calls == 2
    assert totals["art"].self_s == 4  # counted once, not 5 + 3
    assert sum(t.self_s for t in totals.values()) == 10  # the root's duration


def test_self_time_covers_union_of_children():
    root = spans.Span(0, None, "root", "", 0.0, 10.0, "")
    overlapping = [
        spans.Span(1, 0, "a", "", 1.0, 4.0, ""),
        spans.Span(2, 0, "b", "", 3.0, 6.0, ""),
        spans.Span(3, 0, "c", "", 9.0, 12.0, ""),  # clipped to the parent
    ]
    assert spans.self_times([root, *overlapping])[0] == pytest.approx(10 - 5 - 1)


def test_recorder_rejects_out_of_order_close():
    recorder = spans.SpanRecorder(clock=FakeClock(range(10)))
    outer = recorder.open("outer")
    recorder.open("inner")
    with pytest.raises(RuntimeError):
        recorder.close(outer)


def test_trace_id_tags_spans():
    recorder = spans.SpanRecorder(clock=FakeClock(range(10)))
    recorder.trace_id = "w0001"
    recorder.close(recorder.open("a"))
    recorder.trace_id = "w0002"
    recorder.close(recorder.open("a"))
    assert [s.trace_id for s in recorder.spans] == ["w0001", "w0002"]


# -- tail percentile -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(1000, 99.0, 10), (1500, 99.0, 15), (100, 90.0, 10), (650, 98.0, 13), (20, 50.0, 10)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, percentile, beyond):
    samples = [float(i) for i in range(n, 0, -1)]
    tail = measure.tail_percentile(samples)
    assert tail["percentile"] == percentile
    assert tail["samples"] == n
    assert tail["beyond"] == beyond
    assert sum(1 for s in samples if s > tail["value"]) == beyond


def test_tail_percentile_needs_enough_samples():
    assert measure.tail_percentile([1.0] * 19) is None
    assert measure.tail_percentile([]) is None


# -- CPU-speed calibration -------------------------------------------------------


def test_local_scale_uses_the_kernel_runs_on_either_side():
    calibrator = speed.Calibrator()
    calibrator.kernel_s = [0.001, 0.003, 0.002]
    ref = speed.REFERENCE_S
    assert calibrator.local_scale(1) == pytest.approx(ref / 0.002)
    assert calibrator.local_scale(3) == pytest.approx(ref / 0.002)  # none after
    assert calibrator.local_scale(0) == pytest.approx(ref / 0.001)  # none before
    assert calibrator.scale() == pytest.approx(ref / 0.002)


def test_tick_runs_the_kernel_at_most_once_per_interval():
    calibrator = speed.Calibrator()
    calibrator.tick()
    calibrator.tick()
    assert len(calibrator.kernel_s) == 1
    assert calibrator.spent_s >= calibrator.kernel_s[0]


def test_measured_phase_excludes_kernel_time():
    calibrator = speed.Calibrator()
    workload = workloads.CampaignWorkload("cached-batch", participants=20)
    rep = run.run_rep(workload, 3, calibrator)
    assert calibrator.spent_s > 0
    assert len(rep.write_scales) == len(rep.outcome.writes.latencies_s) == 20
    assert len(rep.setups_s) == len(rep.setup_scales) == run.SETUPS_PER_REP
    assert rep.run_s + calibrator.spent_s < rep.wall_s


# -- wrappers are restored exactly ---------------------------------------------


def _boundary_state():
    state = {}
    for b in spans.BOUNDARIES:
        module = importlib.import_module(b.module)
        if b.owner is None:
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro"):
                    state[(mod.__name__, b.name)] = vars(mod).get(b.name)
        else:
            cls = getattr(module, b.owner)
            state[(b.module, b.owner)] = dict(vars(cls))
    state[("repro.net.simnet", "Client")] = dict(vars(workloads.Client))
    return state


def _same(before, after):
    assert before.keys() == after.keys()
    for key in before:
        if isinstance(before[key], dict):
            assert before[key].keys() == after[key].keys(), key
            for name in before[key]:
                assert before[key][name] is after[key][name], (key, name)
        else:
            assert before[key] is after[key], key


def test_traced_repetition_restores_patched_classes():
    before = _boundary_state()
    workload = workloads.CampaignWorkload("cached-batch", participants=20)
    rep, recorder, root = run.run_traced_rep(workload, seed=3, calibrator=speed.Calibrator())
    _same(before, _boundary_state())
    layers = {s.layer for s in recorder.spans}
    assert {"core.campaign", "core.aggregator", "storage.documentstore",
            "crowd.judgment", "net.simnet"} <= layers
    assert {s.trace_id for s in recorder.spans if s.layer == "crowd.judgment"} == {
        w.worker_id for w in workload.setup(3).roster
    }


def test_install_restores_on_failure():
    before = _boundary_state()
    broken = spans.BOUNDARIES[:3] + (
        spans.Boundary("x", "repro.core.campaign", "Campaign", "no_such_method"),
    )
    with pytest.raises(AttributeError):
        spans.install(spans.SpanRecorder(), broken)
    _same(before, _boundary_state())


# -- smoke run of every workload -------------------------------------------------


def _tiny(name):
    """Reduced sizes. At 100 participants the statistical Fig. 4 check fails
    on 1 seed in 300 (seed 71, README), not on the seeds used here."""
    return {
        "cached-batch": workloads.CampaignWorkload("cached-batch", participants=100),
        "cold-render": workloads.CampaignWorkload(
            "cold-render", participants=100, artifact_cache=False
        ),
        "streaming": workloads.CampaignWorkload(
            "streaming", participants=100, store="sharded-streaming"
        ),
        "adaptive-serve": workloads.AdaptiveWorkload(versions=8, rankings=1),
    }[name]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_every_workload_passes_its_checks(name, seed, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    report = run.measure(_tiny(name), seed, seconds=0.01, trace=True)
    assert report["correct"], report["problems"]
    assert report["failed"] == 0
    assert report["repetitions"] == 2  # one untraced, one traced, same digest
    metrics = report["metrics"]
    assert set(metrics) == {spec[0] for spec in run.per_layer_specs()}
    shares = sum(v for k, v in metrics.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0, rel=1e-6)
    assert (tmp_path / f"{name}-spans.jsonl").stat().st_size > 0


def test_end_to_end_metrics_are_all_reported(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    report = run.measure(_tiny("adaptive-serve"), 5, seconds=0.01, trace=False)
    assert report["correct"], report["problems"]
    assert list(report["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(value > 0 for value in report["metrics"].values())
    assert report["write_tail"]["write_tail_samples_per_repetition"]


# -- BENCHMARK.json agrees with the harness --------------------------------------


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        run.per_layer_specs()
    )
