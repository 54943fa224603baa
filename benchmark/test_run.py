"""Unit tests for the benchmark runner's statistics, load accounting and
BENCHMARK.json validation. Standard library only; nothing is built or run:

    python3 -m unittest discover -s benchmark -p 'test_run.py'
"""

import copy
import json
import math
import unittest

import run


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 0.5), 50)
        self.assertEqual(run.percentile(values, 0.9), 90)
        self.assertEqual(run.percentile(values, 0.99), 99)
        self.assertEqual(run.percentile([7.5], 0.99), 7.5)
        self.assertEqual(run.percentile([], 0.5), math.inf)

    def test_failures_sort_last(self):
        values = [1.0] * 98 + [math.inf] * 2
        self.assertEqual(run.percentile(values, 0.98), 1.0)
        self.assertEqual(run.percentile(values, 0.99), math.inf)

    def test_tail_percentile_keeps_ten_samples_beyond(self):
        expected = {9: None, 19: None, 20: 50, 99: 50, 100: 90, 199: 90,
                    200: 95, 999: 95, 1000: 99, 10 ** 6: 99}
        for samples, p in expected.items():
            self.assertEqual(run.tail_percentile(samples), p, samples)

    def test_the_batch_minimum_supports_the_printed_p90(self):
        self.assertEqual(run.tail_percentile(run.MIN_INVOCATIONS), 90)
        self.assertLess(run.GATED_TAIL, 0.9)


class ReferenceSpeedTest(unittest.TestCase):
    def test_local_factors_follow_a_slow_stretch(self):
        # One reference after every REFERENCE_EVERY samples; the machine is
        # twice as slow for the middle stretch.
        reference = [10.0] * 10 + [20.0] * 10 + [10.0] * 10
        n = len(reference) * run.REFERENCE_EVERY
        factors = run.local_factors(n, reference, nominal=10.0)
        self.assertEqual(len(factors), n)
        self.assertEqual(factors[0], 1.0)
        self.assertEqual(factors[n // 2], 0.5)
        self.assertEqual(factors[-1], 1.0)

    def test_local_factors_with_few_references(self):
        self.assertEqual(run.local_factors(3, [8.0, 12.0], nominal=10.0),
                         [1.0] * 3)

    def test_a_slow_machine_scales_timings_down_and_rates_up(self):
        samples = [40.0] * 100
        m = run.batch_metrics(samples, 0.002, [20.0] * 50)
        self.assertEqual(m["speed_factor"], 0.5)
        self.assertEqual(m["latency.p50_ms"], 20.0)
        self.assertEqual(m["setup_s"], 0.001)
        self.assertEqual(m["raw.latency.p50_ms"], 40.0)
        self.assertAlmostEqual(m["throughput"], 2 * m["raw.throughput"])

    def test_serve_rounds_scale_by_their_own_echo(self):
        def round_(busy_us, echo_us, rps):
            return {"busy": ([busy_us] * 10, None), "echo": ([echo_us] * 10,
                                                            None),
                    "capacity": (None, rps)}
        # The last round ran on a machine half as fast, echo included.
        m = run.serve_metrics([round_(60.0, 30.0, 50000.0),
                               round_(60.0, 30.0, 50000.0),
                               round_(120.0, 60.0, 25000.0)], [0.02])
        self.assertEqual(m["latency.p50_ms"], 0.06)
        self.assertEqual(m["latency.p75_ms"], 0.06)
        self.assertEqual(m["throughput"], 50000.0)
        self.assertEqual(m["speed_factor"], 1.0)
        self.assertEqual(m["setup_s"], 0.02)

    def test_one_bad_round_does_not_move_a_serve_metric(self):
        def round_(busy_us):
            return {"busy": ([busy_us] * 10, None), "echo": ([30.0] * 10,
                                                            None),
                    "capacity": (None, 1000.0)}
        m = run.serve_metrics([round_(60.0), round_(61.0), round_(5000.0)],
                              [0.02])
        self.assertEqual(m["latency.p75_ms"], 0.061)
        self.assertEqual(m["raw.latency.p75_ms"], 0.061)


class RegressionTest(unittest.TestCase):
    steady = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    wide = [50, 150, 80, 120, 100, 60, 140, 90, 110, 100]

    def test_within_the_bound_is_ok(self):
        change = [v * 1.05 for v in self.steady]
        self.assertEqual(run.regression(self.steady, change, 0.1, "lower"),
                         "ok")

    def test_beyond_the_bound_is_worse(self):
        change = [v * 1.2 for v in self.steady]
        self.assertEqual(run.regression(self.steady, change, 0.1, "lower"),
                         "worse")

    def test_direction_follows_better(self):
        lower = [v * 0.8 for v in self.steady]
        higher = [v * 1.2 for v in self.steady]
        self.assertEqual(run.regression(self.steady, lower, 0.1, "higher"),
                         "worse")
        self.assertEqual(run.regression(self.steady, higher, 0.1, "higher"),
                         "ok")

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        change = [v * 1.3 for v in self.wide]
        self.assertEqual(run.regression(self.wide, change, 0.1, "lower"),
                         "unresolved")
        # Not "unchanged" either, even when the medians agree.
        self.assertEqual(run.regression(self.wide, self.wide, 0.1, "lower"),
                         "unresolved")

    def test_unresolved_unless_every_change_run_beats_every_parent_run(self):
        change = [v / 10 for v in self.wide]
        self.assertEqual(run.regression(self.wide, change, 0.1, "lower"), "ok")


class GainTest(unittest.TestCase):
    def pairs(self, parent, change):
        return list(zip(parent, change))

    def test_nine_of_ten_wins_and_a_clear_move(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [80, 81, 79, 120, 82, 78, 80, 81, 79, 80]
        self.assertTrue(run.gain(self.pairs(parent, change), "lower"))
        self.assertTrue(run.gain(self.pairs(change, parent), "higher"))

    def test_eight_wins_are_not_enough(self):
        parent = [100] * 10
        change = [80] * 8 + [120] * 2
        self.assertFalse(run.gain(self.pairs(parent, change), "lower"))

    def test_ties_count_for_neither_side(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [80] * 8 + parent[8:]  # eight wins and two ties of ten
        self.assertFalse(run.gain(self.pairs(parent, change), "lower"))

    def test_a_move_inside_the_parent_spread_is_not_a_gain(self):
        parent = [90, 110, 95, 105, 100, 92, 108, 97, 103, 100]
        change = [v - 1 for v in parent]  # wins every pair, moves 1
        self.assertFalse(run.gain(self.pairs(parent, change), "lower"))

    def test_needs_ten_pairs(self):
        self.assertFalse(run.gain(self.pairs([100] * 9, [50] * 9), "lower"))


def open_phase(sent, done, rate=1000):
    return {"rate": rate, "seconds": len(sent) / rate, "sent_us": sent,
            "done_us": done}


class OpenLoopTest(unittest.TestCase):
    def test_latency_runs_from_the_due_time(self):
        # 1000 requests/s: request i is due at i ms. Request 0 stalls the
        # daemon for 5 ms, and requests 1-4 queue behind it.
        phase = open_phase([0, 1000, 2000, 3000, 4000, 5000],
                           [5000, 5010, 5020, 5030, 5040, 5100])
        latency, lateness = run.open_loop_stats(phase)
        self.assertEqual(latency, [5000, 4010, 3020, 2030, 1040, 100])
        self.assertEqual(lateness, [0, 0, 0, 0, 0, 0])

    def test_generator_lateness_is_send_minus_due(self):
        phase = open_phase([3, 1500, 2000], [100, 1600, 2100])
        latency, lateness = run.open_loop_stats(phase)
        self.assertEqual(lateness, [3, 500, 0])
        # A late send does not hide the wait: latency still runs from due.
        self.assertEqual(latency[1], 600)

    def test_a_failed_request_is_infinitely_late(self):
        phase = open_phase([0, 1000, 2000], [50, -1, 2050])
        latency, _ = run.open_loop_stats(phase)
        self.assertEqual(latency[1], math.inf)
        self.assertEqual(run.percentile(latency, 0.5), 50)
        self.assertEqual(run.percentile(latency, 0.99), math.inf)
        self.assertFalse(run.meets_limit(latency))

    def test_closed_loop_counts_ok_responses_per_second(self):
        # seconds runs from the first send to the last answer.
        phase = {"seconds": 0.5, "sent_us": [0, 0, 10, 20],
                 "done_us": [10, 250_000, 500_000, -1]}
        latency, rps = run.closed_loop_stats(phase)
        self.assertEqual(rps, 6.0)
        self.assertEqual(latency, [10, 250_000, 499_990, math.inf])


class SustainedTest(unittest.TestCase):
    def test_backlog_growth(self):
        self.assertTrue(run.backlog_grows([100 + 10 * i for i in range(400)]))
        self.assertFalse(run.backlog_grows([100, 300] * 200))

    def test_limit(self):
        self.assertTrue(run.meets_limit([100.0] * 1000))
        self.assertFalse(run.meets_limit([100.0] * 980 + [run.LIMIT_US + 1] * 20))

    def test_bisects_to_five_percent(self):
        probed = []

        def probe(rate):
            probed.append(rate)
            return rate <= 20000

        rate, probes = run.sustained_rate(probe, 8000, 40000)
        self.assertLessEqual(rate, 20000)
        self.assertGreater(rate, 20000 / 1.05)
        self.assertLessEqual(len(probes), run.MAX_PROBES)
        self.assertEqual([r for r, _ in probes], probed)

    def test_no_rate_meets_the_limit(self):
        self.assertEqual(run.sustained_rate(lambda r: True, 0, 40000), (0, []))


class SpecTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(run.SPEC_PATH.read_text())

    def errors_after(self, mutate):
        spec = copy.deepcopy(self.spec)
        mutate(spec)
        return run.validate_spec(spec)

    def test_the_repository_spec_is_valid(self):
        self.assertEqual(run.validate_spec(self.spec), [])

    def test_names(self):
        for bad in ("p 50", ".hidden", "a/b", "x" * 65, "", "µs"):
            errors = self.errors_after(
                lambda s: s["per_layer"][0].update(name=bad))
            self.assertTrue(errors, bad)
        for good in ("a", "serve.execute_other_us.p99", "9-lives_x.y"):
            self.assertEqual(self.errors_after(
                lambda s: s["per_layer"][0].update(name=good)), [], good)

    def test_names_are_used_once(self):
        self.assertTrue(self.errors_after(
            lambda s: s["per_layer"].append(dict(s["per_layer"][0]))))

    def test_at_most_16_end_to_end_metrics(self):
        def grow(to):
            def mutate(s):
                s["end_to_end"] += [
                    {"name": "extra%d" % i, "unit": "ms", "better": "lower",
                     "bound": 0.1} for i in range(to - len(s["end_to_end"]))]
            return mutate
        self.assertEqual(self.errors_after(grow(16)), [])
        self.assertTrue(self.errors_after(grow(17)))

    def test_at_most_128_layer_metrics(self):
        def grow(to):
            def mutate(s):
                s["per_layer"] += [
                    {"name": "extra%d" % i, "unit": "count", "better": "lower"}
                    for i in range(to - len(s["per_layer"]))]
            return mutate
        self.assertEqual(self.errors_after(grow(128)), [])
        self.assertTrue(self.errors_after(grow(129)))

    def test_bounds_units_and_setup(self):
        self.assertTrue(self.errors_after(
            lambda s: s["end_to_end"][0].update(bound=0.3)))
        self.assertTrue(self.errors_after(
            lambda s: s["end_to_end"][0].update(unit="milli seconds")))
        self.assertTrue(self.errors_after(
            lambda s: s.update(end_to_end=[m for m in s["end_to_end"]
                                           if m["name"] != "setup_s"])))
        self.assertTrue(self.errors_after(lambda s: s.update(extra=1)))

    def test_paths_stay_inside_the_repository(self):
        for bad in ("/benchmark", "../benchmark", "bench mark"):
            self.assertTrue(self.errors_after(
                lambda s: s.update(paths=[bad])), bad)

    def test_workloads_have_one_line_reasons(self):
        self.assertTrue(self.errors_after(
            lambda s: s["workloads"][0].update(why="two\nlines")))
        self.assertTrue(self.errors_after(
            lambda s: s["workloads"][0].update(why="x" * 201)))


class ResultLineTest(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads(run.SPEC_PATH.read_text())
        self.metrics = {m["name"]: 1.5 for m in self.spec["end_to_end"]}
        self.metrics["invocations"] = 100

    def test_holds_exactly_the_end_to_end_metrics(self):
        line = json.loads(run.result_line(
            self.spec, {"metrics": self.metrics, "attempted": 3, "failed": 0,
                        "problems": []}, trace=False))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertTrue(line["correct"])
        self.assertEqual(list(line["metrics"]),
                         [m["name"] for m in self.spec["end_to_end"]])

    def test_an_infinite_latency_makes_the_run_incorrect(self):
        self.metrics["latency.p75_ms"] = math.inf
        line = json.loads(run.result_line(
            self.spec, {"metrics": self.metrics, "attempted": 3, "failed": 0,
                        "problems": []}, trace=False))
        self.assertFalse(line["correct"])
        self.assertTrue(math.isfinite(line["metrics"]["latency.p75_ms"]["value"]))

    def test_extra_units_do_not_shadow_the_spec(self):
        names = {m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]}
        self.assertFalse(names & set(run.EXTRA_UNITS))


if __name__ == "__main__":
    unittest.main()
