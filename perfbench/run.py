#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for Kaleidoscope campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload cached-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats the workload (set-up, measured phase, correctness
checks) until ``--seconds`` have passed and reports the end-to-end metrics
as medians over the repetitions, in seconds at the reference CPU speed
(``speed.py``). ``--trace 1`` first repeats it untraced
for half the time, then with layer spans installed for the rest, and
reports per-layer self times. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``. The full
report (provenance, per-repetition samples, the tail percentile used) and
the last traced repetition's spans are written under ``perfbench/out/``.

Exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

import speed
from measure import tail_percentile
from spans import LAYERS, ROOT_LAYER, SpanRecorder, install, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("cached-batch", "cold-render", "streaming", "adaptive-serve")
#: Repetitions per run at least: two, so every run repeats its seed once
#: and can compare the conclusion digests.
MIN_REPS = 2
#: Set-ups timed per repetition, spread over the run; ``setup_s`` is the
#: median of all of them. Only the last one's state is run.
SETUPS_PER_REP = 3

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("participants_per_s", "1/s"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("answers_to_certify", "count"),
)


def per_layer_specs():
    """(name, unit, better) of every per-layer metric, reported with ``--trace 1``."""
    specs = []
    for layer in LAYERS:
        specs += [
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        ]
    specs += [
        (f"{ROOT_LAYER}.self_s", "s", "lower"),
        (f"{ROOT_LAYER}.share", "ratio", "lower"),
        ("render.artifacts.hit_ratio", "ratio", "higher"),
        ("net.simnet.bytes_per_participant", "B", "lower"),
        ("net.simnet.retries", "count", "lower"),
        ("storage.documentstore.find_one.calls", "count", "lower"),
        ("storage.documentstore.find_one.self_s", "s", "lower"),
        ("store.wal.records", "count", "lower"),
        ("store.wal.bytes", "B", "lower"),
        ("store.wal.bytes_per_upload", "B", "lower"),
        ("core.adaptive.answers_per_refit", "count", "higher"),
        ("core.btmodel.ms_per_refit", "ms", "lower"),
        ("traced_wall_s", "s", "lower"),
        ("tracing_overhead_frac", "ratio", "lower"),
    ]
    return specs


@dataclass
class Rep:
    setup_s: float
    run_s: float
    outcome: object
    #: Wall time of the whole repetition, calibration and checks included.
    wall_s: float = 0.0
    #: Every set-up timed in the repetition, ``setup_s`` last, each with its
    #: own factor to the reference speed.
    setups_s: List[float] = field(default_factory=list)
    setup_scales: List[float] = field(default_factory=list)
    #: Factor to the reference speed of the measured phase, from the kernel
    #: runs inside it, and of each write, from the kernel runs next to it.
    run_scale: float = 1.0
    write_scales: List[float] = field(default_factory=list)


def _timed_setup(workload, seed: int, calibrator: speed.Calibrator):
    """(state, raw set-up seconds, factor to the reference speed)."""
    gc.collect()
    before = calibrator.sample()
    start = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - start
    after = calibrator.sample()
    return state, setup_s, speed.REFERENCE_S / ((before + after) / 2.0)


def run_rep(workload, seed: int, calibrator: speed.Calibrator) -> Rep:
    """One untraced repetition: set-ups, measured phase, checks.

    The calibration kernel runs around each set-up and all through the
    measured phase, whose time excludes it.
    """
    begin = time.perf_counter()
    setups = [_timed_setup(workload, seed, calibrator) for _ in range(SETUPS_PER_REP)]
    state, setup_s, _ = setups[-1]
    gc.collect()
    calibrated = calibrator.spent_s
    first = len(calibrator.kernel_s)
    start = time.perf_counter()
    outcome = workload.run(state, calibrator=calibrator)
    run_s = time.perf_counter() - start - (calibrator.spent_s - calibrated)
    in_phase = calibrator.kernel_s[first:]
    workload.check(state, outcome)
    return Rep(
        setup_s, run_s, outcome, time.perf_counter() - begin,
        setups_s=[s for _, s, _ in setups],
        setup_scales=[f for _, _, f in setups],
        run_scale=speed.REFERENCE_S / statistics.fmean(in_phase or calibrator.kernel_s[-1:]),
        write_scales=[calibrator.local_scale(m) for m in outcome.writes.marks],
    )


def run_traced_rep(workload, seed: int, calibrator: speed.Calibrator):
    """One traced repetition; returns (rep, recorder, root span).

    The calibration kernel runs only before it, so that no span covers it.
    """
    recorder = SpanRecorder()
    begin = time.perf_counter()
    gc.collect()
    calibrator.sample()
    patches = install(recorder)
    try:
        root = recorder.open(ROOT_LAYER, "repetition")
        try:
            state = workload.setup(seed)
            setup_end = time.perf_counter()
            outcome = workload.run(state, recorder)
        finally:
            recorder.close(root)
    finally:
        patches.restore()
    workload.check(state, outcome)
    rep = Rep(setup_end - root.start, root.end - setup_end, outcome,
              time.perf_counter() - begin)
    return rep, recorder, root


def _scaled(values: List[float], scales: List[float], raw: bool) -> List[float]:
    return list(values) if raw else [v * f for v, f in zip(values, scales)]


def end_to_end_metrics(workload, reps: List[Rep], raw: bool = False) -> tuple:
    """(metric values, write-tail details) of the untraced repetitions.

    Timings are at the reference CPU speed: every measured phase, set-up and
    write times its own factor. With ``raw`` they are the seconds as they
    passed.
    """
    runs = _scaled([r.run_s for r in reps], [r.run_scale for r in reps], raw)
    writes = [_scaled(r.outcome.writes.latencies_s, r.write_scales, raw) for r in reps]
    tails = [tail_percentile(w) for w in writes]
    if any(t is None for t in tails):
        raise RuntimeError("too few writes per repetition for a tail percentile")
    rankings = getattr(workload, "rankings", 1)
    setups = [s for r in reps for s in _scaled(r.setups_s, r.setup_scales, raw)]
    values = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(runs),
        "participants_per_s": statistics.median(
            [r.outcome.participants / run_s for r, run_s in zip(reps, runs)]
        ),
        "write_p50_ms": statistics.median([s for w in writes for s in w]) * 1000.0,
        "write_tail_ms": statistics.median([t["value"] * 1000.0 for t in tails]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "answers_to_certify": reps[0].outcome.answers / rankings,
    }
    detail = {
        "write_tail_percentile": sorted({t["percentile"] for t in tails}),
        "write_tail_samples_per_repetition": [t["samples"] for t in tails],
        "write_tail_beyond_per_repetition": [t["beyond"] for t in tails],
    }
    return values, detail


def layer_metrics(rep: Rep, recorder, root, untraced_wall: float) -> dict:
    """Per-layer metrics of one traced repetition; checks the self-time sum."""
    spans = recorder.spans
    wall = root.end - root.start
    totals = layer_totals(spans)
    attributed = sum(t.self_s for t in totals.values())
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        raise RuntimeError(
            f"self times sum to {attributed!r} s, traced wall is {wall!r} s"
        )
    unknown = set(totals) - set(LAYERS) - {ROOT_LAYER}
    if unknown:
        raise RuntimeError(f"spans of unknown layers: {sorted(unknown)}")
    values = {}
    for layer in LAYERS + (ROOT_LAYER,):
        entry = totals.get(layer)
        calls = entry.calls if entry else 0
        self_s = entry.self_s if entry else 0.0
        if layer != ROOT_LAYER:
            values[f"{layer}.calls"] = calls
        values[f"{layer}.self_s"] = self_s
        values[f"{layer}.share"] = self_s / wall
    by_op = layer_totals(spans, key=lambda s: (s.layer, s.op))
    find_one = by_op.get(("storage.documentstore", "find_one"))
    details = rep.outcome.details
    participants = rep.outcome.participants
    hits = details.get("artifact_hits", 0)
    misses = details.get("artifact_misses", 0)
    exchanges = details.get("exchanges", 0)
    btmodel = totals.get("core.btmodel")
    refits = details.get("refits", 0)
    wal_bytes = details.get("wal_bytes", 0)
    values.update({
        "render.artifacts.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "net.simnet.bytes_per_participant": details["network_bytes"] / participants,
        "net.simnet.retries": max(0, exchanges - values["net.simnet.calls"]),
        "storage.documentstore.find_one.calls": find_one.calls if find_one else 0,
        "storage.documentstore.find_one.self_s": find_one.self_s if find_one else 0.0,
        "store.wal.records": details.get("wal_records", 0),
        "store.wal.bytes": wal_bytes,
        "store.wal.bytes_per_upload": wal_bytes / participants,
        "core.adaptive.answers_per_refit": rep.outcome.answers / refits if refits else 0.0,
        "core.btmodel.ms_per_refit": (
            btmodel.self_s / btmodel.calls * 1000.0 if btmodel else 0.0
        ),
        "traced_wall_s": wall,
        "tracing_overhead_frac": wall / untraced_wall - 1.0,
    })
    return values


def provenance(args, workload) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        git_sha = found.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workload.sizes(),
        "cpu_count": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def _time_left(deadline: float, reps: List[Rep]) -> bool:
    """Whether another repetition, as long as the last one, would end no
    later than half a repetition after ``deadline``."""
    return time.perf_counter() + reps[-1].wall_s / 2.0 < deadline


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; returns the full report."""
    start = time.perf_counter()
    untraced_until = start + (seconds / 2.0 if trace else seconds)
    calibrator = speed.Calibrator()
    reps: List[Rep] = []
    while len(reps) < (1 if trace else MIN_REPS) or _time_left(untraced_until, reps):
        reps.append(run_rep(workload, seed, calibrator))
    untraced = list(reps)
    traced = []
    if trace:
        untraced_wall = statistics.median([r.setup_s + r.run_s for r in reps])
        deadline = start + seconds
        while not traced or _time_left(deadline, reps):
            rep, recorder, root = run_traced_rep(workload, seed, calibrator)
            traced.append(layer_metrics(rep, recorder, root, untraced_wall))
            reps.append(rep)
        OUT.mkdir(exist_ok=True)
        recorder.write_jsonl(OUT / f"{workload.name}-spans.jsonl")
    scale = calibrator.scale()

    problems = []
    for i, rep in enumerate(reps):
        problems += [f"repetition {i}: {p}" for p in rep.outcome.problems]
    if len({rep.outcome.digest for rep in reps}) != 1:
        problems.append("repetitions of one seed concluded with different digests")
    if len({rep.outcome.answers for rep in reps}) != 1:
        problems.append("repetitions of one seed absorbed different answer counts")
    attempted = sum(len(rep.outcome.writes.latencies_s) for rep in reps)
    failed = sum(rep.outcome.writes.failed + rep.outcome.lost_uploads for rep in reps)
    report = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed + len(problems),
        "problems": problems,
        "failed_frac": (failed + len(problems)) / attempted if attempted else 1.0,
        "repetitions": len(reps),
        "traced_repetitions": len(traced),
        "speed": {
            "reference_s": speed.REFERENCE_S,
            "kernel_runs": len(calibrator.kernel_s),
            "kernel_mean_s": statistics.fmean(calibrator.kernel_s),
            "kernel_median_s": statistics.median(calibrator.kernel_s),
            "kernel_in_phases_s": calibrator.spent_s,
            "scale": scale,
        },
        "raw_setup_samples_s": [s for r in untraced for s in r.setups_s],
        "raw_run_samples_s": [r.run_s for r in reps],
        "digest": reps[0].outcome.digest,
    }
    if trace:
        report["metrics"] = {}
        for name, unit, _ in per_layer_specs():
            value = statistics.median([t[name] for t in traced])
            report["metrics"][name] = value * scale if unit in ("s", "ms") else value
    else:
        report["metrics"], report["write_tail"] = end_to_end_metrics(workload, reps)
        report["raw_metrics"], _ = end_to_end_metrics(workload, reps, raw=True)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    from workloads import make_workloads

    workload = make_workloads()[args.workload]
    report = measure(workload, args.seed, args.seconds, bool(args.trace))
    report["provenance"] = provenance(args, workload)
    units = {name: unit for name, unit in END_TO_END}
    units.update({name: unit for name, unit, _ in per_layer_specs()})
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for problem in report["problems"]:
        print(f"FAILED: {problem}")
    for name, value in report["metrics"].items():
        print(f"{name:45s} {value!r:>24} {units[name]}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in report["metrics"].items()
        },
    }))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
