"""Self-test of the benchmark's arithmetic (stats.py). run.py runs it
before every workload; `python3 -m unittest test_stats` from this
directory runs it alone. The client's stop rule is tested by
src/selftest.cpp."""

import unittest

import stats


class TailRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond(self):
        self.assertEqual(stats.min_samples(0.95, 10), 200)
        self.assertEqual(stats.min_samples(0.99, 10), 1000)
        with self.assertRaises(stats.InsufficientSamples):
            stats.tail_quantile(list(range(199)), 0.95)
        values = list(range(1, 201))
        p95 = stats.tail_quantile(values, 0.95)
        self.assertEqual(p95, 190)
        self.assertEqual(sum(1 for v in values if v > p95), 10)

    def test_nearest_rank(self):
        self.assertEqual(stats.quantile([5, 1, 3], 0.5), 3)
        self.assertEqual(stats.quantile([4, 1, 3, 2], 0.5), 2)
        self.assertEqual(stats.quantile([7], 0.99), 7)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)


def op(due, sent, ack, status=0, acks=1):
    return {"due_ns": due, "sent_ns": sent, "ack_ns": ack, "status": status,
            "acks": acks}


class DueTimeLatency(unittest.TestCase):
    def test_generator_stall_is_charged_to_the_ops_it_delayed(self):
        ms = 1_000_000
        # Ops due every 62.5 ms; the generator stalls until 400 ms, so ops
        # 2..6 go out together. Every op is acked 100 ms after it is sent.
        ops = []
        for i in range(8):
            due = int(i * 62.5 * ms) + 1  # monotonic times are never 0
            sent = max(due, 400 * ms) if 2 <= i <= 6 else due
            ops.append(op(due, sent, sent + 100 * ms))
        latency, lag, acks = stats.due_latencies(ops, warmup=0)
        self.assertEqual(len(latency), 8)
        self.assertAlmostEqual(max(lag), 275.0, places=4)  # op 2: due 125
        self.assertAlmostEqual(latency[0], 100.0)
        # Ordered by ack time: op 2 is third and carries its 275 ms of lag.
        self.assertAlmostEqual(latency[2], 375.0, places=4)
        self.assertEqual(acks, sorted(acks))

    def test_warmup_unacked_and_failed_ops_are_excluded(self):
        ms = 1_000_000
        ops = [op(0, 0 + 1, 50 * ms), op(10 * ms, 10 * ms, 20 * ms),
               op(20 * ms, 20 * ms, 0, acks=0),               # never acked
               op(30 * ms, 30 * ms, 90 * ms, status=1),       # retry status
               op(40 * ms, 0, 0, acks=0)]                     # never issued
        latency, lag, _ = stats.due_latencies(ops, warmup=1)
        self.assertEqual(latency, [50.0])  # first ack (op 1) is warm-up
        self.assertEqual(len(lag), 4)

    def test_windows(self):
        parts = stats.split(list(range(10)), 3)
        self.assertEqual(parts, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]])
        self.assertEqual(sum(parts, []), list(range(10)))
        # One stalled window does not move the median of window medians.
        samples = [10] * 100 + [500] * 100 + [11] * 100
        self.assertEqual(stats.windowed(stats.split(samples, 3), stats.median),
                         11)

    def test_rate(self):
        self.assertAlmostEqual(stats.rate_per_s([0, 250_000_000, 500_000_000,
                                                 1_000_000_000]), 3.0)
        with self.assertRaises(stats.InsufficientSamples):
            stats.rate_per_s([5])


class SpanSelfTime(unittest.TestCase):
    def test_overlapping_children_count_once_and_are_clipped(self):
        spans = {
            0: {"parent": -1, "start": 0, "end": 100},
            1: {"parent": 0, "start": 10, "end": 30},
            2: {"parent": 0, "start": 20, "end": 40},
            3: {"parent": 0, "start": 90, "end": 120},
            4: {"parent": 1, "start": 12, "end": 18},   # grandchild
        }
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns[0], 100 - (30 + 10))   # [10,40] + [90,100]
        self.assertEqual(self_ns[1], 20 - 6)
        self.assertEqual(self_ns[4], 6)
        self.assertEqual(self_ns[3], 30)


if __name__ == "__main__":
    unittest.main()
