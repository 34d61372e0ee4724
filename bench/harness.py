"""Statistics, digests and span arithmetic shared by run.py,
its worker processes and its tests.  Standard library only."""

from __future__ import annotations

import hashlib
import json
import math
import statistics

MIN_BEYOND = 10


def digest(obj) -> str:
    """sha256 of the canonical JSON form of obj (tuples as lists)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def median(values) -> float:
    return statistics.median(values)


def tail(samples, min_beyond: int = MIN_BEYOND) -> dict:
    """The highest whole percentile P whose nearest-rank value has at least
    min_beyond samples above it in rank order.  With too few samples for
    any such P, returns None."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= min_beyond:
            return {"percentile": p, "value": xs[rank - 1], "beyond": n - rank, "samples": n}
    return None


def op_tail(reps) -> dict:
    """Tail of the op times of several repetitions (lists of equal length).
    When they hold too few samples for ``tail``, the slowest op's median
    over the repetitions stands in, marked as percentile 100."""
    found = tail([t for rep in reps for t in rep])
    if found is not None:
        return found
    per_op = [median(ts) for ts in zip(*reps)]
    return {"percentile": 100, "value": max(per_op), "beyond": 0,
            "samples": sum(len(rep) for rep in reps)}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval covered by its
    children.  Children on different threads may overlap; the covered
    part is a union, so overlap is counted once.

    spans: iterable of (id, parent, name, start, end)."""
    spans = list(spans)
    children = {}
    for sid, parent, _name, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - union_length(children.get(sid, ()), start, end)
        for sid, _parent, _name, start, end in spans
    }
