"""Statistics the benchmark reports: medians, percentiles under the
ten-samples-beyond rule, failure counts, and per-layer self time from a
span tree. Pure functions, no I/O; test_stats.py covers them."""

import math

MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def min_samples(pct):
    """Fewest samples that leave MIN_BEYOND of them above percentile `pct`."""
    return math.ceil(MIN_BEYOND * 100 / (100 - pct) - 1e-9)


def percentile(values, pct):
    """Nearest-rank percentile, only when at least MIN_BEYOND samples lie
    beyond it; raises ValueError otherwise, so a tail is never reported
    from too few samples. The median is exempt (its rule is >= 1 sample)."""
    n = len(values)
    if pct == 50:
        return median(values)
    if n < min_samples(pct):
        raise ValueError(f"p{pct} needs {min_samples(pct)} samples, have {n}")
    s = sorted(values)
    rank = max(1, math.ceil(pct / 100 * n))
    return s[rank - 1]


def count_failures(sent, acked, deltas):
    """Failed batches of a serving run. `sent` is the number of batches
    sent, `acked` the set of batch sequence numbers (1-based) the daemon
    acknowledged, `deltas` maps each view to the set of sequence numbers it
    streamed a ΔQ for. A batch fails when it is not acked, or acked but
    missing from any view (a dropped view misses them all)."""
    failed = 0
    for seq in range(1, sent + 1):
        if seq not in acked or any(seq not in got for got in deltas.values()):
            failed += 1
    return failed


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time per layer. Each span is a dict with id, parent (0 = top
    level), layer, start and end. A span's self time is its length minus
    the part of its interval its children cover, so every instant is
    charged to the deepest span open at that instant. Spans that overlap
    at the same depth (batches in flight together) charge the overlap
    once, to the one opened last. Returns {layer: time}."""
    by_id = {s["id"]: s for s in spans}

    def depth(s):
        d = 0
        while s["parent"] in by_id:
            s = by_id[s["parent"]]
            d += 1
        return d

    depths = {s["id"]: depth(s) for s in spans}
    bounds = sorted({t for s in spans for t in (s["start"], s["end"])})
    starts = sorted(spans, key=lambda s: s["start"])
    out = {}
    active = []
    nxt = 0
    for a, b in zip(bounds, bounds[1:]):
        while nxt < len(starts) and starts[nxt]["start"] <= a:
            active.append(starts[nxt])
            nxt += 1
        active = [s for s in active if s["end"] > a]
        if not active:
            continue
        top = max(active, key=lambda s: (depths[s["id"]], s["start"]))
        out[top["layer"]] = out.get(top["layer"], 0) + (b - a)
    return out


def unaccounted_share(spans, wall_start, wall_end):
    """Share of [wall_start, wall_end] that no top-level span covers."""
    tops = [(max(s["start"], wall_start), min(s["end"], wall_end))
            for s in spans if s["parent"] == 0]
    tops = [(a, b) for a, b in tops if b > a]
    wall = wall_end - wall_start
    return (wall - _covered(tops)) / wall if wall > 0 else 0.0
