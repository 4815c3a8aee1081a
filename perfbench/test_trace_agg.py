"""Tests of the self-time aggregator on hand-built traces.

Run: python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from trace_agg import aggregate


def span(name, tid, start, end):
    return [{"name": name, "ph": "B", "tid": tid, "ts": start},
            {"name": name, "ph": "E", "tid": tid, "ts": end}]


def trace(*parts):
    """Interleave the span lists of several threads in timestamp order,
    keeping each thread's own event order, as the exporter may."""
    events = [event for part in parts for event in part]
    return sorted(events, key=lambda e: e["ts"])


class NestedSpansOnTwoThreads(unittest.TestCase):
    def setUp(self):
        # Thread 0: op [0, 100] holds load [10, 30] (with validate
        # [20, 25]) and paths [40, 90], whose BFS runs as a pool region
        # par.for [45, 85] that helps with one task [50, 60].
        main = [
            {"name": "op", "ph": "B", "tid": 0, "ts": 0},
            {"name": "load", "ph": "B", "tid": 0, "ts": 10},
            {"name": "validate", "ph": "B", "tid": 0, "ts": 20},
            {"name": "validate", "ph": "E", "tid": 0, "ts": 25},
            {"name": "load", "ph": "E", "tid": 0, "ts": 30},
            {"name": "paths", "ph": "B", "tid": 0, "ts": 40},
            {"name": "par.for", "ph": "B", "tid": 0, "ts": 45},
            {"name": "par.task", "ph": "B", "tid": 0, "ts": 50},
            {"name": "par.task", "ph": "E", "tid": 0, "ts": 60},
            {"name": "par.for", "ph": "E", "tid": 0, "ts": 85},
            {"name": "paths", "ph": "E", "tid": 0, "ts": 90},
            {"name": "op", "ph": "E", "tid": 0, "ts": 100},
        ]
        # Thread 1, a worker lane: a stolen task [46, 80] of that region,
        # holding one layer span cores [55, 70] with a nested peel level
        # [60, 66].
        worker = [
            {"name": "par.task", "ph": "B", "tid": 1, "ts": 46},
            {"name": "cores", "ph": "B", "tid": 1, "ts": 55},
            {"name": "peel", "ph": "B", "tid": 1, "ts": 60},
            {"name": "peel", "ph": "E", "tid": 1, "ts": 66},
            {"name": "cores", "ph": "E", "tid": 1, "ts": 70},
            {"name": "par.task", "ph": "E", "tid": 1, "ts": 80},
        ]
        self.table = aggregate(trace(main, worker))

    def ms(self, name, kind):
        return self.table[name][kind] * 1e3  # back to trace microseconds

    def test_self_time_subtracts_children_on_the_same_thread(self):
        self.assertAlmostEqual(self.ms("op", "self_ms"), 100 - 20 - 50)
        self.assertAlmostEqual(self.ms("load", "self_ms"), 20 - 5)
        self.assertAlmostEqual(self.ms("validate", "self_ms"), 5)
        self.assertAlmostEqual(self.ms("cores", "self_ms"), 15 - 6)
        self.assertAlmostEqual(self.ms("peel", "self_ms"), 6)

    def test_pool_spans_charge_their_time_to_the_enclosing_layer(self):
        # paths covers its whole interval: the region and the helping
        # task on the same thread are its own work.
        self.assertAlmostEqual(self.ms("paths", "self_ms"), 50)
        self.assertEqual(self.table["par.for"]["self_ms"], 0)

    def test_worker_task_without_a_layer_keeps_its_own_time(self):
        # The worker's task is not nested in any layer span on its own
        # thread; only the part its child layer span does not cover
        # stays under par.task. The helping task on thread 0 adds none.
        self.assertAlmostEqual(self.ms("par.task", "self_ms"), 34 - 15)
        self.assertEqual(self.table["par.task"]["count"], 2)

    def test_inclusive_time_and_counts(self):
        self.assertAlmostEqual(self.ms("op", "inclusive_ms"), 100)
        self.assertAlmostEqual(self.ms("par.task", "inclusive_ms"), 10 + 34)
        self.assertEqual(self.table["peel"]["count"], 1)

    def test_self_times_of_one_thread_sum_to_its_root(self):
        main_names = ("op", "load", "validate", "paths")
        total = sum(self.ms(name, "self_ms") for name in main_names)
        self.assertAlmostEqual(total, 100)

    def test_window_keeps_only_spans_inside_it(self):
        events = trace(span("early", 0, 0, 10), span("late", 0, 20, 30),
                       span("late", 1, 25, 40))
        table = aggregate(events, window=(15, 35))
        self.assertEqual(set(table), {"late"})
        self.assertEqual(table["late"]["count"], 1)


class MalformedTraces(unittest.TestCase):
    def test_unmatched_end_is_rejected(self):
        with self.assertRaises(ValueError):
            aggregate([{"name": "x", "ph": "E", "tid": 0, "ts": 1}])

    def test_unclosed_span_is_rejected(self):
        with self.assertRaises(ValueError):
            aggregate([{"name": "x", "ph": "B", "tid": 0, "ts": 1}])

    def test_crossed_names_are_rejected(self):
        events = [{"name": "a", "ph": "B", "tid": 0, "ts": 1},
                  {"name": "b", "ph": "B", "tid": 0, "ts": 2},
                  {"name": "a", "ph": "E", "tid": 0, "ts": 3},
                  {"name": "b", "ph": "E", "tid": 0, "ts": 4}]
        with self.assertRaises(ValueError):
            aggregate(events)


if __name__ == "__main__":
    unittest.main()
