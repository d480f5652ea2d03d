"""CPU-speed calibration, for timings scaled to a reference speed.

Each vCPU of a shared virtual machine switches between a fast and a slow
state, 1.3-1.9x apart, and wall and CPU time both follow it. A slow spell
lasts from tens of milliseconds to seconds, the two vCPUs switch
independently, and the share of time spent slow drifts from one minute to
the next. Raw timings of one program then differ by more between two runs
than a regression bound can allow.

The benchmark therefore runs a fixed kernel of its own all through a run:
right before and after every set-up, and every ``INTERVAL_S`` inside the
measured phase, at a point where no timed write is open. The time spent in
the kernel is taken out of the measured phase. Each timing is then scaled
by ``REFERENCE_S`` / (mean time of the kernel runs next to it or inside
it). A timed section is the sum of its moments, so the mean kernel time,
sampled evenly in time, matches how the slow share enters it. The kernel
runs no code of the program under test: a change to the program moves the
scaled times as much as the raw ones, while a change of machine state moves
the timed sections and the kernel alike.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

import numpy as np

#: Mean kernel time (s) on the reference machine (2-vCPU Xeon KVM guest,
#: Python 3.11.7, numpy 2.4) in its fast state. Scaled timings read as
#: seconds there.
REFERENCE_S = 0.0011
#: Least time between two kernel runs inside a measured phase.
INTERVAL_S = 0.02
#: Iterations of the kernel's numpy part.
NUMPY_ROUNDS = 40


class _Row:
    __slots__ = ("worker_id", "left", "right", "answer")

    def __init__(self, worker_id, left, right, answer):
        self.worker_id = worker_id
        self.left = left
        self.right = right
        self.answer = answer

    def key(self):
        return (self.answer, self.left, self.right, self.worker_id)


def kernel() -> int:
    """A fixed mix of what the program does most: object and dict
    construction, attribute access, method calls, string formatting, hashing
    and sorting in the interpreter, then small numpy array arithmetic as in
    a Bradley-Terry refit."""
    answers = ("left", "right", "same")
    rows = [_Row(f"w{i:05d}", i % 5, (i * 7 + 3) % 5, answers[i % 3]) for i in range(400)]
    tally = {}
    for row in rows:
        key = (row.left, row.right)
        counts = tally.setdefault(key, {"left": 0, "right": 0, "same": 0})
        counts[row.answer] += 1
    ordered = sorted(rows, key=_Row.key)
    documents = [{"worker_id": r.worker_id, "pair": [r.left, r.right], "answer": r.answer}
                 for r in ordered]
    total = 0
    for document in documents:
        total += len(document["worker_id"]) + tally[tuple(document["pair"])][document["answer"]]
    wins = np.full((40, 40), 0.5)
    for (left, right), counts in tally.items():
        wins[left * 8, right * 8] += counts["left"]
    scores = np.full(40, 1.0 / 40)
    for _ in range(NUMPY_ROUNDS):
        pair_sums = scores[:, None] + scores[None, :]
        scores = wins.sum(axis=1) / ((wins + wins.T) / pair_sums).sum(axis=1)
        scores /= scores.sum()
    return total + int(scores.argmax())


class Calibrator:
    """Kernel times of one run, and the time they took inside measured phases."""

    def __init__(self):
        self.kernel_s: List[float] = []
        #: Wall time spent in ``tick``; measured phases subtract their share.
        self.spent_s = 0.0
        self._next = 0.0

    def sample(self) -> float:
        """Run the kernel once, with the collector off so that the program's
        live heap does not enter it; returns the wall time it took."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        self.kernel_s.append(elapsed)
        return elapsed

    def tick(self) -> None:
        """Run the kernel if ``INTERVAL_S`` has passed since the last tick's run."""
        start = time.perf_counter()
        if start < self._next:
            return
        self.sample()
        end = time.perf_counter()
        self.spent_s += end - start
        self._next = end + INTERVAL_S

    def local_scale(self, mark: int) -> float:
        """Factor to reference seconds for a moment after kernel run number
        ``mark`` (a count of runs) and before the next one, from the two."""
        near = self.kernel_s[max(mark - 1, 0):mark + 1]
        return REFERENCE_S / statistics.fmean(near)

    def scale(self) -> float:
        """Factor from raw seconds to reference seconds for this run."""
        return REFERENCE_S / statistics.fmean(self.kernel_s)
