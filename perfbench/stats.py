"""The benchmark's own arithmetic, kept free of I/O so it can be tested.

Percentiles follow the nearest-rank rule and a named percentile is only
reported when at least ``BEYOND`` samples lie above it.  Self time is a
span's duration minus the union of its children on the same thread.
Open-loop latency runs from each request's due time, so a stalled
generator charges the stall to every request queued behind it.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# A percentile is supported by a sample when at least this many samples
# lie strictly beyond its nearest rank.
BEYOND = 10


def rank(n: int, q: float) -> int:
    """Nearest rank (1-based) of the q-th percentile among n samples."""
    if n < 1 or not 0 < q < 100:
        raise ValueError("need n >= 1 and 0 < q < 100")
    return max(1, math.ceil(q / 100.0 * n))


def beyond(n: int, q: float) -> int:
    """How many of n samples lie beyond the q-th percentile's rank."""
    return n - rank(n, q)


def supported(n: int, q: float) -> bool:
    """Whether n samples carry the q-th percentile under the ten-beyond rule."""
    return n >= 1 and beyond(n, q) >= BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank q-th percentile of ``values``."""
    ordered = sorted(values)
    return ordered[rank(len(ordered), q) - 1]


# -- self time -------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by the union of [start, end] intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[object, float]:
    """Self time of each span: duration minus the union of its children.

    ``spans`` carry ``id``, ``parent`` (an id or ``None``), ``thread``,
    ``start`` and ``end``.  Only children on the parent's thread count,
    and each child is clipped to its parent's interval.
    """
    by_id = {span["id"]: span for span in spans}
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None or parent["thread"] != span["thread"]:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if end > start:
            children.setdefault(parent["id"], []).append((start, end))
    return {
        span["id"]: (span["end"] - span["start"])
        - union_length(children.get(span["id"], ()))
        for span in spans
    }


def fits_lifetime(spans: Sequence[Dict[str, object]], selfs: Dict[object, float],
                  life: Sequence[float], share: float, seconds: float) -> bool:
    """Whether one thread's spans fit the thread's lifetime, timed apart from them.

    Every span must lie inside ``life`` (within ``seconds``), and the self
    times of the spans must sum to no more than its length plus a slack
    of ``share`` of it plus ``seconds``: a span recorded twice, or on the
    wrong thread or clock, breaks one of the two.
    """
    start, end = life
    length = end - start
    inside = all(s["start"] >= start - seconds and s["end"] <= end + seconds for s in spans)
    total = sum(selfs[s["id"]] for s in spans)
    return inside and total <= length + share * length + seconds


def covers_phase(spans: Sequence[Dict[str, object]], selfs: Dict[object, float],
                 phase: Sequence[float], share: float, seconds: float) -> bool:
    """Whether the self times of a thread's spans inside a timed phase sum to it.

    ``phase`` is a ``[start, end]`` the caller timed around a traced root
    span; a lost root leaves the phase's gaps uncovered, a span recorded
    twice counts its time twice.
    """
    start, end = phase
    length = end - start
    total = sum(selfs[s["id"]] for s in spans if s["start"] >= start and s["end"] <= end)
    return abs(total - length) <= share * length + seconds


# -- open loop -------------------------------------------------------------


def open_loop(records: Sequence[Dict[str, float]]) -> Dict[str, List[float]]:
    """Latency (end - due) and lateness (start - due) of open-loop requests.

    Each record carries ``due``, ``start`` and ``end`` on one clock.  A
    request sent late because the generator was busy keeps its due time,
    so the wait it spent unsent counts in its latency.
    """
    return {
        "latency": [r["end"] - r["due"] for r in records],
        "lateness": [max(0.0, r["start"] - r["due"]) for r in records],
    }


def backlog_growing(
    records: Sequence[Dict[str, float]], *, slack: float = 0.02
) -> bool:
    """Whether generator lateness grew across a ladder step.

    Compares the median lateness of the last quarter of the step's
    requests (in due order) against the first quarter; growth beyond
    ``slack`` seconds means requests arrive faster than they are served.
    """
    ordered = sorted(records, key=lambda r: r["due"])
    if len(ordered) < 8:
        return False
    quarter = len(ordered) // 4
    late = open_loop(ordered)["lateness"]
    return statistics.median(late[-quarter:]) - statistics.median(late[:quarter]) > slack


# -- the rate ladder -------------------------------------------------------


def step_passes(step: Dict[str, object], limit_ms: float) -> bool:
    """Whether a ladder step met the latency limit with no 429 and no backlog.

    A step has a characterize-miss p90 (``None`` when it drew too few
    misses, which fails it) under ``limit_ms``, drew no 429 and no other
    failed request, its backlog did not grow and it sent its whole
    schedule.
    """
    p90 = step.get("miss_p90_ms")
    return (
        p90 is not None
        and p90 < limit_ms
        and not step.get("rejected")
        and not step.get("errors")
        and not step.get("growing")
        and not step.get("unsent")
    )


def ladder_max_rate(
    steps: Sequence[Dict[str, object]], limit_ms: float
) -> Optional[Dict[str, object]]:
    """The highest passing step below every failing one.

    Steps are taken in increasing rate; the first failure ends the
    passing prefix, so a lucky pass above a failed step does not count.
    ``None`` when the lowest step fails.
    """
    best = None
    for step in sorted(steps, key=lambda s: s["rate"]):
        if not step_passes(step, limit_ms):
            break
        best = step
    return best


def ladder_next_rate(
    steps: Sequence[Dict[str, object]], limit_ms: float, factor: float
) -> Optional[float]:
    """The rate of the ladder's next step, or ``None`` when it cannot refine.

    While every step passed, the ladder climbs: the highest rate times
    ``factor``.  Once a step failed, it bisects (geometric midpoint)
    between the highest passing rate below the lowest failure and that
    failure, so each further step halves the ratio that brackets the
    saturation rate.  ``None`` when the lowest step failed.
    """
    best = ladder_max_rate(steps, limit_ms)
    if best is None:
        return None
    failed = [s["rate"] for s in steps if not step_passes(s, limit_ms)]
    if not failed:
        return max(s["rate"] for s in steps) * factor
    return math.sqrt(best["rate"] * min(failed))
