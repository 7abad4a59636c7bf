#!/usr/bin/env python3
"""Self-tests for the benchmark's metric arithmetic (perfbench/stats.py).

    python3 perfbench/test_stats.py

Covers the tail-percentile rule, send-to-reply latency, failure-as-miss,
the square-micrometre accounting, and that every metric BENCHMARK.json
names is produced, with the same unit, by the code that computes it.
"""

import json
import statistics
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import stats  # noqa: E402

BENCHMARK_JSON = HERE.parent / "BENCHMARK.json"


def timed_raw(rows, px=128):
    return {
        "px": px, "setup_s": [2.0, 1.0, 3.0],
        "server_rss_kb": 2048, "warmup_mismatch": 0, "prime_failed": 0,
        "server_exit": 0, "calib_before_ms": 50.0, "calib_after_ms": 52.0,
        "host_steal_pct": 1.0, "setup_rss_hwm_kb": 4096, "setup_rss_kb": 1024,
        "requests": {"end_ms": 1000.0, "rows": rows},
    }


def layers_raw():
    rows = [[float(i), float(i) + 20.0, stats.OK] for i in range(40)]
    sched_rows = [[float(i), float(i) + 18.0, stats.OK] for i in range(40)]
    return {
        "px": 128, "warmup_mismatch": 0,
        "calib_before_ms": 50.0, "calib_after_ms": 54.0,
        "server_cpu_ms": 400.0,
        "socket": {"end_ms": 1000.0, "rows": rows},
        "sched_requests": {"end_ms": 1000.0, "rows": sched_rows},
        "server_metrics": {"counters": {"serve.busy_rejected": 0},
                           "gauges": {"engine.arena_bytes": 1 << 20}},
        "codec_us": {"encode.tile": 50.0, "decode.tile": 5.0,
                     "encode.large": 800.0, "decode.large": 100.0},
        "sched": {"batches": 20, "batched_requests": 30,
                  "queue_depth_max": 3, "effective_delay_us": 2000,
                  "rejected": 0, "replica_requests": [30, 10],
                  "pool_rejected": 0, "plans_before": 8, "plans_after": 8,
                  "plan_fallbacks": 0},
        "engine_load_ms": 50.0,
        "batch_ms": [15.0, 25.0, 32.0, 41.0, 47.0, 58.0, 68.0, 79.0],
        "heap_allocs_per_batch": 0, "large_ms": 300.0,
        "i8_batch_ms": [13.0, 26.0],
        "gemm": [{"shape": s, "m": int(s.split("x")[0]),
                  "k": int(s.split("x")[1]), "l": int(s.split("x")[2]),
                  "batch": 8, "fp32_ms": 5.0, "int8_ms": 6.0}
                 for s in stats.GEMM_SHAPES],
        "fft_gp_us": 300.0, "trace": "trace.json",
    }


class TailRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        values = list(range(1, 101))
        value, pct, beyond = stats.tail(values)
        self.assertEqual(value, 90)
        self.assertEqual(sum(1 for v in values if v > value), 10)
        self.assertEqual(beyond, 10)
        self.assertAlmostEqual(pct, 90.0)

    def test_percentile_rises_with_samples(self):
        self.assertAlmostEqual(stats.tail(list(range(1000)))[1], 99.0)
        self.assertAlmostEqual(stats.tail(list(range(36)))[1], 100 * 26 / 36)

    def test_order_independent(self):
        self.assertEqual(stats.tail([5, 1, 9, 3, 7, 2, 8, 6, 4, 10, 0])[0], 0)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            stats.tail(list(range(10)))

    def test_short_run_is_one_chunk(self):
        values = [float(v) for v in range(150)]
        value, pct, beyond, chunks = stats.chunked_tail(values)
        self.assertEqual(chunks, 1)
        self.assertEqual((value, pct, beyond), stats.tail(values))

    def test_one_stall_moves_one_chunk(self):
        # 1000 requests, the last 100 all delayed by one host stall: the
        # run-wide tail is the stall, the median chunk tail is not.
        values = [10.0 + (i % 100) / 10 for i in range(900)] + [500.0] * 100
        self.assertEqual(stats.tail(values)[0], 500.0)
        value, pct, beyond, chunks = stats.chunked_tail(values)
        self.assertEqual(chunks, stats.TAIL_CHUNKS)
        self.assertEqual(value, stats.tail(values[:100])[0])
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(beyond, 10)

    def test_failures_in_most_chunks_reach_the_tail(self):
        values = ([1.0] * 85 + [stats.MISS_MS] * 15) * 6 + [1.0] * 400
        self.assertEqual(stats.chunked_tail(values)[0], stats.MISS_MS)


class Latency(unittest.TestCase):
    def test_timed_from_send_to_reply(self):
        self.assertEqual(stats.latencies([[5.0, 20.0, stats.OK]]), [15.0])

    def test_failures_miss_every_limit(self):
        for status in (stats.MISMATCH, stats.BUSY, stats.ERROR, stats.LOST):
            self.assertEqual(stats.latencies([[0.0, 1.0, status]]),
                             [stats.MISS_MS])
        rows = [[0.0, 10.0, stats.OK]] * 20 + [[0.0, 1.0, stats.BUSY]] * 11
        lat = stats.latencies(rows)
        self.assertEqual(stats.tail(lat)[0], stats.MISS_MS)
        self.assertEqual(statistics.median(lat), 10.0)

    def test_failures_count_against_attempted(self):
        rows = [[0.0, 1.0, s] for s in
                (stats.OK, stats.OK, stats.BUSY, stats.LOST, stats.MISMATCH)]
        c = stats.counts(rows)
        self.assertEqual((c["sent"], c["ok"], c["failed"]), (5, 2, 3))


class Area(unittest.TestCase):
    def test_tile_and_window_area(self):
        self.assertAlmostEqual(stats.area_um2(128), 4.194304)
        self.assertAlmostEqual(stats.area_um2(512), 67.108864)

    def test_only_correct_replies_count(self):
        rows = ([[0.0, 1.0, stats.OK]] * 10
                + [[0.0, 1.0, stats.MISMATCH]] * 2)
        self.assertAlmostEqual(stats.um2_per_s(rows, 128, 2000.0),
                               10 * 4.194304 / 2.0)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.bench = json.loads(BENCHMARK_JSON.read_text())

    def test_benchmark_json_matches_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["end_to_end"]},
                         stats.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.bench["per_layer"]},
                         stats.PER_LAYER)

    def test_setup_metric_contract(self):
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.bench["end_to_end"]))

    def test_timed_run_emits_every_end_to_end_metric(self):
        rows = [[float(i), float(i) + 3, stats.OK] for i in range(30)]
        metrics, details = stats.end_to_end(timed_raw(rows))
        self.assertEqual(set(metrics), set(stats.END_TO_END))
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertEqual(metrics["server_rss_mb"], 2.0)
        self.assertEqual(details["tail_samples_beyond"], 10)

    def test_layers_run_emits_every_per_layer_metric(self):
        metrics, details = stats.layers(layers_raw())
        self.assertEqual(set(metrics), set(stats.PER_LAYER))
        self.assertEqual(metrics["pool.replica_share_max"], 0.75)
        self.assertEqual(metrics["sched.batch_mean"], 1.5)
        self.assertAlmostEqual(metrics["net.overhead_ms"], 2.0)
        d = details["decomposition"]
        self.assertAlmostEqual(
            d["net_codec_ms"] + d["sched_ms"] + d["engine_ms"]
            + d["unexplained_ms"], d["client_p50_ms"])

    def test_changed_model_is_reported(self):
        raw = layers_raw()
        raw["gemm"][0]["shape"] = "1x1x1"
        with self.assertRaises(ValueError):
            stats.layers(raw)


if __name__ == "__main__":
    unittest.main()
