"""Self-tests for the benchmark's own logic.

    python3 perfbench/selftest.py

Run from the root of a checkout; the tracer test imports oddflag from src.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402


class QueryInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(run.make_queries(7), run.make_queries(7))
        self.assertNotEqual(run.make_queries(7), run.make_queries(8))

    def test_mix_and_domain(self):
        queries = run.make_queries(1)
        kinds = {kind: sum(q[0] == kind for q in queries) for kind, _ in run.MIX}
        self.assertEqual(kinds, dict(run.MIX))
        labels = set(run.label_strings(run.RANK))
        self.assertEqual(len(labels), 4 * run.RANK**2)
        for q in queries:
            self.assertTrue(all(x in labels for x in q[1:] if isinstance(x, str)))
            self.assertTrue(all(0 <= x <= run.DEGREE_MAX for x in q[1:] if isinstance(x, int)))


class SelfTime(unittest.TestCase):
    # (span_id, parent_id, name, start, end, hot_ns, request)
    SPANS = [
        (1, 0, "main", 0, 100, 5, 0),
        (2, 1, "a", 10, 40, 0, 0),
        (3, 2, "b", 15, 25, 4, 0),
        (4, 1, "a", 50, 70, 0, 0),
        (5, 1, "c", 60, 90, 0, 0),  # overlaps the second "a": counted once
        (6, 0, "main", 200, 210, 0, 1),
    ]

    def test_hand_built_tree(self):
        own = tracing.span_self_ns(self.SPANS)
        self.assertEqual(own, {1: 100 - 70 - 5, 2: 30 - 10, 3: 10 - 4, 4: 20, 5: 30, 6: 10})
        self.assertEqual(
            tracing.self_ns_by_name(self.SPANS),
            {"main": 25 + 10, "a": 20 + 20, "b": 6, "c": 30},
        )

    def test_covered_clips_to_parent(self):
        self.assertEqual(tracing.covered_ns(10, 20, [(0, 12), (18, 30)]), 4)
        self.assertEqual(tracing.covered_ns(10, 20, []), 0)

    def test_tracer_accounts_every_nanosecond(self):
        ticks = iter(range(0, 10_000, 10))
        tracer = tracing.Tracer(clock=lambda: next(ticks))
        leaf = tracer.hot_call("leaf", lambda: None)
        inner = tracer.hot_call("inner", lambda: leaf())
        outer = tracer.span("outer", lambda: (inner(), leaf()))
        top = tracer.span("top", lambda: (outer(), leaf()))
        top()
        leaf()  # outside every span
        summary = tracer.summary({})
        self.assertEqual(summary["calls"], {"outer": 1, "top": 1})
        self.assertEqual({k: v["calls"] for k, v in summary["hot"].items()}, {"leaf": 4, "inner": 1})
        self.assertEqual(tracing.check_summary(summary), [])
        self.assertTrue(all(v >= 0 for v in summary["self_ns"].values()))


class Percentile(unittest.TestCase):
    def test_counts_samples_and_beyond(self):
        samples = list(range(1, 1001))
        self.assertEqual(run.percentile(samples, 50), {"value": 500, "samples": 1000, "beyond": 500})
        self.assertEqual(run.percentile(samples, 99), {"value": 990, "samples": 1000, "beyond": 10})
        self.assertEqual(run.percentile(samples, 99.9), {"value": 999, "samples": 1000, "beyond": 1})
        self.assertEqual(run.percentile([3.0], 99), {"value": 3.0, "samples": 1, "beyond": 0})


class MetricNames(unittest.TestCase):
    def test_result_line_matches_benchmark_json(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        rep = {"wall_ns": 2 * 10**9, "ref_s": 0.1, "meta": {"peak_rss_kb": 2048}}
        metrics, _ = run.end_to_end("verify", [rep], [10**8])
        self.assertEqual(
            [(k, u) for k, (_v, u) in metrics.items()],
            [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        )
        self.assertEqual(metrics["wall_ref"][0], 20.0)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))


class QueryReference(unittest.TestCase):
    def test_shipped_seed_digests(self):
        ref = run.QueryReference(run.load_reference())
        for seed, digest in ref.digests.items():
            answers = [ref.answer(q) for q in run.make_queries(int(seed))]
            self.assertEqual(run.answers_digest(answers), digest)


class InstalledTracer(unittest.TestCase):
    """Wraps the real package and leaves it wrapped; no other test here calls oddflag."""

    def test_wraps_every_alias_and_counts_match_caches(self):
        import oddflag
        import oddflag.cli  # noqa: F401
        weyl = sys.modules["oddflag.weyl"]
        caches = {f"weyl.{k}": v for k, v in vars(weyl).items() if hasattr(v, "cache_info")}
        tracer = tracing.Tracer()
        tracer.install()
        nb = sys.modules["oddflag.neighborhoods"]
        self.assertIs(sys.modules["oddflag.verify"].cross_check, nb.cross_check)
        self.assertIs(sys.modules["oddflag.qbg"].bruhat_leq, weyl.bruhat_leq)
        self.assertIs(sys.modules["oddflag.qbg"].gamma_closed_form, nb.gamma_closed_form)
        self.assertIs(oddflag.bruhat_leq, weyl.bruhat_leq)
        self.assertTrue(hasattr(nb.cross_check, "__wrapped__"))
        report = oddflag.cross_check(2, oddflag.Degree(2, 2))
        self.assertTrue(report.ok)
        summary = tracer.summary(caches)
        self.assertEqual(tracing.check_summary(summary), [])
        self.assertEqual(summary["counters"]["neighborhoods.cross_check.cells"], 16 * 9)
        self.assertEqual(summary["calls"]["neighborhoods.gamma_bfs"], 16 * 9)


if __name__ == "__main__":
    unittest.main(verbosity=2)
