"""Arithmetic of the benchmark: tail percentiles, due-time latency and
scheduling lag, span self time. Self-tested by test_stats.py."""

import math
import statistics


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def quantile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sample."""
    if not values:
        raise InsufficientSamples("empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def min_samples(q, beyond):
    """Smallest sample whose q-quantile has at least `beyond` samples above
    it: 200 for the 95th percentile with 10 beyond."""
    return math.ceil(beyond / (1.0 - q) - 1e-9)


def tail_quantile(values, q, beyond=10):
    """The q-quantile, only when at least `beyond` samples lie above it."""
    need = min_samples(q, beyond)
    if len(values) < need:
        raise InsufficientSamples(
            f"p{q * 100:g} needs {need} samples for {beyond} beyond it, "
            f"got {len(values)}")
    return quantile(values, q)


def median(values):
    if not values:
        raise InsufficientSamples("empty sample")
    return statistics.median(values)


def mean(values):
    return sum(values) / len(values) if values else 0.0


def due_latencies(ops, warmup):
    """Open-loop accounting over client op records (dicts with due_ns,
    sent_ns, ack_ns, status, acks).

    Latency runs from each op's due time to its first ack, so a generator
    stall is charged to every op it delayed; acked-ok ops are ordered by ack
    time and the first `warmup` of them are dropped. Scheduling lag is how
    late each issued op was sent after its due time. Returns
    (latency_ms, lag_ms, ack_times_ns) with ack times of the kept ops."""
    issued = [o for o in ops if o["sent_ns"] > 0]
    lag_ms = [(o["sent_ns"] - o["due_ns"]) / 1e6 for o in issued]
    acked = sorted((o for o in issued if o["acks"] >= 1 and o["status"] == 0),
                   key=lambda o: o["ack_ns"])[warmup:]
    latency_ms = [(o["ack_ns"] - o["due_ns"]) / 1e6 for o in acked]
    return latency_ms, lag_ms, [o["ack_ns"] for o in acked]


def split(seq, k):
    """`seq` cut into k contiguous parts whose lengths differ by at most 1."""
    n = len(seq)
    return [seq[i * n // k:(i + 1) * n // k] for i in range(k)]


def windowed(parts, fn):
    """Median over parts of fn(part): a transient stall of the host moves
    one part's figure instead of the whole run's."""
    return median([fn(p) for p in parts])


def rate_per_s(times_ns):
    """Events per second over a sorted list of event times: (k - 1) gaps
    over the span from the first to the last."""
    if len(times_ns) < 2 or times_ns[-1] <= times_ns[0]:
        raise InsufficientSamples("need two distinct event times")
    return (len(times_ns) - 1) * 1e9 / (times_ns[-1] - times_ns[0])


def self_times(spans):
    """Self time of every span: its duration minus the union of its direct
    children's intervals, clipped to the span. `spans` maps id -> dict with
    parent, start, end. Returns id -> self ns."""
    children = {}
    for sid, s in spans.items():
        if s["parent"] in spans:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for sid, s in spans.items():
        covered = 0
        reach = s["start"]
        for c in sorted(children.get(sid, ()), key=lambda c: c["start"]):
            lo = max(c["start"], reach)
            hi = min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = (s["end"] - s["start"]) - covered
    return out
