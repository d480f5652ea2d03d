"""The tail-percentile rule of ``write_tail_ms``."""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

#: A tail must leave at least this many samples beyond it.
TAIL_MIN_BEYOND = 10
#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(sorted_values: Sequence[float], percentile: float) -> Tuple[float, int]:
    """(value, rank) of ``percentile`` by the nearest-rank rule (rank is 1-based)."""
    n = len(sorted_values)
    rank = max(1, math.ceil(n * percentile / 100.0))
    return sorted_values[rank - 1], rank


def tail_percentile(samples: Sequence[float]) -> Optional[dict]:
    """The highest ladder percentile with >= ``TAIL_MIN_BEYOND`` samples beyond it.

    Returns ``{"percentile", "value", "samples", "beyond"}``, or None when
    there are too few samples for any percentile on the ladder.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_LADDER:
        if n == 0:
            break
        value, rank = nearest_rank(ordered, percentile)
        if n - rank >= TAIL_MIN_BEYOND:
            return {"percentile": percentile, "value": value, "samples": n,
                    "beyond": n - rank}
    return None
