"""Unit tests of the benchmark's arithmetic and result schema.

  python3 bench/e2e/run.py --selftest
"""

import json
import unittest
from pathlib import Path

import metrics as M
import run

HERE = Path(__file__).resolve().parent


def ns_bucket(ns):
    """Mirror of ns_bucket() in driver.cpp."""
    if ns < 8:
        return ns
    m = ns.bit_length() - 1
    return 4 * m + ((ns >> (m - 2)) & 3)


def fake_raw(traced, shards=1):
    """e2e_driver output with every field the derivations read."""
    raw = {
        "workload": "relay_mesh", "traced": traced, "shards": shards,
        "setup": {"build": [0.2, 0.3, 0.1], "subscribe": [0.1, 0.1, 0.1],
                  "register": [0.1, 0.1, 0.1], "warmup": [0.1, 0.1, 0.1],
                  "total": [0.5, 0.6, 0.4]},
        # gap, two epochs, drain: 10 s of traffic in all
        "segment_wall_s": [0.5, 4.0, 5.0, 0.5], "segment_sim_s": [10.0, 10.0, 10.0, 49.0],
        "segment_deliveries": [0, 40, 45, 5],
        "collect_s": 0.5, "publish_busy_s": 1.0,
        "publish_ms": [1.0, 2.0, 3.0, 4.0, 5.0],
        "peak_rss_mb": 512.0,
        "counters": {
            "events_executed": 100, "timer_fires": 10, "peak_pending": 5,
            "frames_delivered": 400, "bytes_sent": 4000, "honest_messages": 10,
            "honest_deliveries": 90, "publish_calls": 12, "published": 12, "accepted": 100,
            "proof_verifications": 100, "proof_cache_hits": 0, "double_signals": 4,
            "slashes_submitted": 8, "rln_dropped": 0, "registrations": 12, "slashes": 2,
            "root_updates": 14, "sync_bytes": 560, "blocks": 9, "violators": 2,
            "gs_delivered": 100, "gs_duplicates": 300, "gs_forwarded": 390, "gs_rejected": 4,
            "gs_ignored": 0, "gs_payload_bytes": 3000, "gs_control_bytes": 1000},
        "checks": {"honest_publish_failed": 0, "expected_deliveries": 90,
                   "missing_deliveries": 0, "violators_active": 0, "honest_members": 10,
                   "honest_inactive": 0},
    }
    if traced:
        raw["layers"] = {
            "deliver_busy_s": 6.0 * shards, "deliver_hist": [0] * 12 + [3, 1],
            "lane_busy_s": [0.0] + [6.0] * shards,
            "lane_events": [7] + [93 // shards] * shards,
            "mem_router_bytes": 1, "mem_mcache_bytes": 2, "mem_nullifier_bytes": 3,
            "mem_merkle_bytes": 4, "mem_event_pool_bytes": 5, "mem_network_bytes": 6}
        # Traced epochs over twin epochs: 4.2 / 4.0 and 5.0 / 5.0.
        raw["twin"] = {"segment_wall_s": [0.4, 4.0, 5.0, 0.6],
                       "counters": dict(raw["counters"]), "checks": dict(raw["checks"])}
        raw["segment_wall_s"] = [0.5, 4.2, 5.0, 0.3]
    return raw


class Statistics(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(M.median([3, 1, 2]), 2)
        self.assertEqual(M.median([1, 2, 3, 4]), 2.5)
        self.assertEqual(M.quartiles(list(range(1, 11))), (2.75, 8.25))
        self.assertEqual(M.quartiles([0.6, 1.5, 1.0]), (0.6, 1.5))

    def test_percentile_interpolates_between_ranks(self):
        xs = [50, 10, 40, 20, 30]
        self.assertEqual(M.percentile(xs, 0.5), 30)
        self.assertAlmostEqual(M.percentile(xs, 0.9), 46)
        self.assertEqual(M.percentile([7.0], 0.9), 7.0)
        with self.assertRaises(ValueError):
            M.percentile([], 0.5)

    def test_bucket_range_inverts_ns_bucket(self):
        for ns in range(0, 70000):
            lo, hi = M.bucket_range(ns_bucket(ns))
            self.assertLessEqual(lo, ns)
            self.assertLess(ns, hi)
        self.assertEqual(M.bucket_range(12), (8, 10))
        self.assertEqual(M.bucket_range(15), (14, 16))
        self.assertEqual(M.bucket_range(16), (16, 20))

    def test_hist_percentile_takes_the_bucket_midpoint(self):
        counts = [0] * 12 + [5, 0, 0, 0, 5]  # five in [8,10), five in [16,20)
        self.assertEqual(M.hist_percentile(counts, 0.5), 9.0)
        self.assertEqual(M.hist_percentile(counts, 0.51), 18.0)
        self.assertEqual(M.hist_percentile(counts, 0.99), 18.0)
        self.assertEqual(M.hist_percentile([0, 0], 0.5), 0.0)


class Verdicts(unittest.TestCase):
    LOWER = M.Metric("x", "s", "measured", "lower", 0.10, floor=0.02)
    HIGHER = M.Metric("y", "1/s", "measured", "higher", 0.10)

    def test_pairs_won_counts_ties_for_neither_side(self):
        self.assertAlmostEqual(M.pairs_won([1, 2, 3], [1, 1, 4], "lower"), 1 / 3)
        self.assertAlmostEqual(M.pairs_won([1, 2, 3], [1, 1, 4], "higher"), 1 / 3)

    def test_verdicts(self):
        base = [1.00, 1.01, 0.99]
        self.assertEqual(M.verdict(base, [1.02, 1.03, 1.01], self.LOWER), "within bound")
        self.assertEqual(M.verdict(base, [1.20, 1.21, 1.19], self.LOWER), "regressed")
        # A gain needs ten pairs; three clearly better runs are not one.
        self.assertEqual(M.verdict(base, [0.80, 0.81, 0.79], self.LOWER), "within bound")
        base10 = [1.0 + 0.001 * i for i in range(10)]
        faster = [0.8 + 0.001 * i for i in range(10)]
        self.assertEqual(M.verdict(base10, faster, self.LOWER), "improved")
        # Nine of ten pairs won is enough; eight is not.
        self.assertEqual(M.verdict(base10, faster[:9] + [1.5], self.LOWER), "improved")
        self.assertEqual(M.verdict(base10, faster[:8] + [1.05, 1.05], self.LOWER),
                         "within bound")
        self.assertEqual(M.verdict([1.0, 1.5, 0.6], [1.05, 1.0, 1.1], self.LOWER),
                         "unresolved")
        # Better on every run is resolved despite the spread, but the medians
        # differ by less than the base's quartile distance: no gain claimed.
        self.assertEqual(M.verdict([1.0, 1.5, 0.6], [0.5, 0.55, 0.52], self.LOWER),
                         "within bound")

    def test_direction_is_respected(self):
        base = [100.0 + i for i in range(10)]
        self.assertEqual(M.verdict(base, [80.0 + i for i in range(10)], self.HIGHER),
                         "regressed")
        self.assertEqual(M.verdict(base, [120.0 + i for i in range(10)], self.HIGHER),
                         "improved")

    def test_absolute_floor_widens_small_bounds(self):
        base = [0.010, 0.0101, 0.0099]
        # 150% worse, but only 0.015 s: inside the 0.02 s floor.
        self.assertEqual(M.verdict(base, [0.025, 0.0251, 0.0249], self.LOWER), "within bound")
        self.assertEqual(M.verdict(base, [0.035, 0.0351, 0.0349], self.LOWER), "regressed")


class Derivations(unittest.TestCase):
    def test_failed_ratio_arithmetic(self):
        raw = fake_raw(False)
        raw["checks"].update(honest_publish_failed=1, missing_deliveries=2)
        attempted, failed = M.attempted_failed(raw)
        self.assertEqual(attempted, 10 + 90 + 2 + 10)
        self.assertEqual(failed, 3)
        self.assertAlmostEqual(M.failed_ratio(failed, attempted), 3 / 112)
        self.assertFalse(run.result_line(raw, [])["correct"])

    def test_end_to_end_values(self):
        e2e = M.end_to_end(fake_raw(False))
        self.assertEqual(e2e["setup_s"], 0.5)
        # Medians over the epochs only: the gap and the drain are left out.
        self.assertEqual(e2e["wall_ms_per_sim_s"], 450.0)
        self.assertAlmostEqual(e2e["wall_us_per_delivery"], (4e6 / 40 + 5e6 / 45) / 2)
        self.assertEqual(e2e["publish_ms_p50"], 3.0)

    def test_traced_times_add_up(self):
        for shards in (1, 2):
            layers = M.per_layer(fake_raw(True, shards))
            # traffic 10 s = publish 1 s + deliver 6 s per shard + other 3 s
            self.assertAlmostEqual(layers["sim.other_s"], 3.0)
            # The phases of the median repetition (total 0.5 s) are reported.
            self.assertEqual(layers["harness.build_s"], 0.2)
        self.assertEqual(layers["eth.slash_tx_useful_ratio"], 0.25)
        self.assertEqual(layers["net.deliver_ns_p50"], 9.0)
        self.assertEqual(layers["sim.lane2.events"], 46)
        self.assertAlmostEqual(layers["rln.publish_ms_p90"], 4.6)

    def test_overhead_is_the_median_epoch_ratio_against_the_twin(self):
        # Epochs only: the gap (0.5 / 0.4) and the drain (0.3 / 0.6) are left out.
        self.assertAlmostEqual(M.overhead_ratio(fake_raw(True)), (1.05 + 1.0) / 2)

    def test_check_twin(self):
        self.assertEqual(run.check_twin(fake_raw(True)), [])
        raw = fake_raw(True)
        raw["twin"]["counters"]["frames_delivered"] = 401
        raw["segment_wall_s"] = [0.5, 4.6, 5.6, 0.3]  # 1.15 and 1.12
        problems = run.check_twin(raw)
        self.assertEqual(len(problems), 2)
        self.assertIn("counters.frames_delivered", problems[0])
        self.assertIn("trace.overhead_ratio", problems[1])


class Schema(unittest.TestCase):
    def test_every_metric_has_unit_kind_and_direction(self):
        for m in M.METRICS.values():
            self.assertTrue(m.unit, m.name)
            self.assertIn(m.kind, ("measured", "modeled", "count"), m.name)
            self.assertIn(m.better, ("lower", "higher"), m.name)
        bounds = {m.name: (m.bound, m.floor) for m in M.END_TO_END}
        self.assertEqual(bounds, {
            "setup_s": (0.25, 0.02), "wall_ms_per_sim_s": (0.25, 0.0),
            "wall_us_per_delivery": (0.25, 0.0), "publish_ms_p50": (0.25, 0.0),
            "peak_rss_mb": (0.05, 0.0)})
        self.assertEqual(bounds["setup_s"][0], max(b for b, _ in bounds.values()))

    def test_derived_metrics_match_the_table(self):
        for traced, table in ((False, M.END_TO_END), (True, M.PER_LAYER)):
            for shards in (1, 2):
                line = run.result_line(fake_raw(traced, shards), [])
                self.assertEqual(list(line["metrics"]), [m.name for m in table])
                for m in table:
                    self.assertEqual(line["metrics"][m.name]["unit"], m.unit)
                self.assertTrue(line["correct"])
                self.assertEqual((line["attempted"], line["failed"]), (112, 0))

    def test_benchmark_json_matches_the_table(self):
        path = HERE.parent.parent / "BENCHMARK.json"
        bench = json.loads(path.read_text())
        self.assertEqual(bench["command"], ["python3", "bench/e2e/run.py"])
        self.assertEqual(bench["run_seconds"], run.REF_SECONDS)
        self.assertEqual([w["name"] for w in bench["workloads"]], run.WORKLOADS)
        self.assertEqual(bench["end_to_end"],
                         [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
                          for m in M.END_TO_END])
        self.assertEqual(bench["per_layer"],
                         [{"name": m.name, "unit": m.unit, "better": m.better}
                          for m in M.PER_LAYER])

    def test_run_length_scales_epochs(self):
        self.assertEqual(run.epochs_for("relay_mesh", run.REF_SECONDS), 4)
        self.assertEqual(run.epochs_for("publish_dense", run.REF_SECONDS // 2), 10)
        self.assertEqual(run.epochs_for("relay_mesh", 1), 1)


if __name__ == "__main__":
    unittest.main()
