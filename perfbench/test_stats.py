"""Self-tests of the benchmark's statistics and of BENCHMARK.json.

    python3 perfbench/test_stats.py
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertEqual(stats.min_samples(90), 100)
        self.assertEqual(stats.min_samples(95), 200)
        self.assertEqual(stats.min_samples(99), 1000)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 99), 990)
        # Exactly ten samples lie beyond the reported p99.
        self.assertEqual(sum(1 for v in range(1, 1001) if v > 990), 10)

    def test_p90_boundary(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(99)), 90)
        self.assertEqual(stats.percentile(list(range(1, 101)), 90), 90)

    def test_median_of_any_count(self):
        self.assertEqual(stats.percentile([3.0], 50), 3.0)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


class FailureCounting(unittest.TestCase):
    def test_all_delivered(self):
        views = {"q1": {1, 2, 3}, "q2": {1, 2, 3}}
        self.assertEqual(stats.count_failures(3, {1, 2, 3}, views), 0)

    def test_not_acked(self):
        views = {"q1": {1, 3}, "q2": {1, 3}}
        self.assertEqual(stats.count_failures(3, {1, 3}, views), 1)

    def test_missing_on_one_view(self):
        views = {"q1": {1, 2, 3}, "q2": {1, 3}}
        self.assertEqual(stats.count_failures(3, {1, 2, 3}, views), 1)

    def test_dropped_view_misses_everything(self):
        views = {"q1": {1, 2, 3}, "q2": set()}
        self.assertEqual(stats.count_failures(3, {1, 2, 3}, views), 3)

    def test_never_sent_is_not_counted(self):
        self.assertEqual(stats.count_failures(2, {1, 2, 3}, {"q1": {1, 2}}), 0)


def span(i, parent, layer, start, end):
    return {"id": i, "parent": parent, "layer": layer, "start": start, "end": end}


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted(self):
        spans = [span(1, 0, "bench", 0, 100),
                 span(2, 1, "engine", 10, 50),
                 span(3, 2, "storage", 20, 30)]
        self.assertEqual(stats.self_times(spans),
                         {"bench": 60, "engine": 30, "storage": 10})

    def test_layers_add_up_to_covered_wall(self):
        spans = [span(1, 0, "bench", 0, 40), span(2, 1, "compiler", 5, 6),
                 span(3, 0, "engine", 50, 90), span(4, 3, "storage", 60, 70)]
        own = stats.self_times(spans)
        self.assertEqual(sum(own.values()), 80)
        self.assertAlmostEqual(stats.unaccounted_share(spans, 0, 100), 0.2)

    def test_overlapping_batches_count_once(self):
        spans = [span(1, 0, "load", 0, 100),
                 span(2, 1, "serve", 10, 40), span(3, 1, "serve", 30, 50)]
        self.assertEqual(stats.self_times(spans), {"load": 60, "serve": 40})

    def test_span_past_its_parent(self):
        spans = [span(1, 0, "bench", 0, 10), span(2, 1, "engine", 5, 15)]
        self.assertEqual(stats.unaccounted_share(spans, 0, 20), 0.5)


class BenchmarkJson(unittest.TestCase):
    def test_matches_the_runner(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in bench["per_layer"]],
                         run.PER_LAYER)
        setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


if __name__ == "__main__":
    unittest.main()
