"""Percentiles with an explicit sample-count floor, and run summaries.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it: with fewer, one slow sample moves the figure and two sets of
runs of the same code disagree.  Nearest-rank is used so a percentile is
always a measured value, never an interpolation.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def percentile(values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND):
    """Nearest-rank ``q``-th percentile of ``values`` and the count beyond it.

    Returns ``(value, beyond)``.  Raises :class:`InsufficientSamples`
    when fewer than ``min_beyond`` samples lie beyond the rank.
    """
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    beyond = n - rank
    if n == 0 or beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need at least {min_beyond}"
        )
    return ordered[rank - 1], beyond


def p50(values: Sequence[float]) -> float:
    """Median with the sample floor enforced (used for per-layer p50s)."""
    return percentile(values, 50)[0]


def latency_summary(latencies_s: Sequence[float]) -> Dict[str, float]:
    """p50/p99 in ms with sample counts, as stamped into the report."""
    p50_s, beyond50 = percentile(latencies_s, 50)
    p99_s, beyond99 = percentile(latencies_s, 99)
    return {
        "p50_ms": p50_s * 1e3,
        "p99_ms": p99_s * 1e3,
        "samples": len(latencies_s),
        "beyond_p50": beyond50,
        "beyond_p99": beyond99,
    }

