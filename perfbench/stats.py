"""Metric definitions and arithmetic for the perfbench serving benchmark.

The C++ harness in perfbench/src records raw observations (per-request
send and reply times and statuses, set-up times, server counters, layer
timings); this module turns them into the metrics BENCHMARK.json names.
It has no side effects, so perfbench/test_stats.py checks every rule here
directly.
"""

import statistics

# A request that failed, was refused (BUSY) or got no reply counts as
# missing every latency limit: it ranks above any real latency.
MISS_MS = 1e6
# Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
# The tail is taken per chunk of consecutive requests and the median over
# chunks is reported, so one host stall (which delays every request in
# flight at once) moves one chunk's tail instead of the run's. A run is cut
# into at most TAIL_CHUNKS chunks of at least CHUNK_MIN requests; shorter
# runs form one chunk.
TAIL_CHUNKS = 10
CHUNK_MIN = 100
# Raster pitch of every mask (nm per pixel).
PIXEL_NM = 16.0

OK, MISMATCH, BUSY, ERROR, LOST = 0, 1, 2, 3, 4

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "um2_per_s": "um2/s",
    "setup_s": "s",
    "server_rss_mb": "MB",
}

# The three conv GEMMs with the most multiply-adds in a batch-8 tile
# forward of the benchmark checkpoint (m x k x l per sample), as the
# harness reads them off the executor's capture. The harness's list is
# checked against this one on every traced run.
GEMM_SHAPES = ("8x144x16384", "16x36x16384", "8x72x16384")

PER_LAYER = {
    "loadgen.mismatch": "count",
    "host.calib_ms": "ms",
    "net.encode_us.tile": "us",
    "net.encode_us.large": "us",
    "net.decode_us.tile": "us",
    "net.decode_us.large": "us",
    "net.overhead_ms": "ms",
    "serve.busy_rejected": "count",
    "serve.dropped_replies": "count",
    "serve.protocol_errors": "count",
    "sched.latency_ms.p50": "ms",
    "sched.latency_ms.tail": "ms",
    "sched.overhead_ms": "ms",
    "sched.batch_mean": "requests",
    "sched.effective_delay_us": "us",
    "sched.queue_depth_max": "count",
    "sched.rejected": "count",
    "engine.batch_ms.b1": "ms",
    "engine.batch_ms.b2": "ms",
    "engine.batch_ms.b4": "ms",
    "engine.batch_ms.b8": "ms",
    "engine.large_ms": "ms",
    "engine.i8_batch_ms.b1": "ms",
    "engine.i8_batch_ms.b2": "ms",
    "engine.load_ms": "ms",
    "engine.plan_count": "count",
    "engine.arena_bytes": "bytes",
    "engine.heap_allocs_per_batch": "count",
    "engine.plan_fallbacks": "count",
    "pool.replica_share_max": "ratio",
    "pool.rejected": "count",
}
for _shape in GEMM_SHAPES:
    PER_LAYER["gemm.fp32_ms." + _shape] = "ms"
    PER_LAYER["gemm.int8_ms." + _shape] = "ms"
    PER_LAYER["gemm.madds." + _shape] = "count"
    PER_LAYER["gemm.fp32_bytes." + _shape] = "bytes"
    PER_LAYER["gemm.int8_bytes." + _shape] = "bytes"
PER_LAYER["fft.gp_us.b8"] = "us"
PER_LAYER["server.cpu_ms_per_req"] = "ms"


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples_beyond): the (TAIL_BEYOND+1)-th
    largest sample, the share of samples at or below it in percent, and
    the number of samples above it.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples: a tail needs more than {TAIL_BEYOND}")
    ranked = sorted(values)
    return ranked[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def chunked_tail(values):
    """Median over chunks of consecutive samples of each chunk's tail().

    Returns (value, percentile, samples_beyond, chunks): the percentile and
    samples beyond are those of a chunk of average size.
    """
    n = len(values)
    k = max(1, min(TAIL_CHUNKS, n // CHUNK_MIN))
    bounds = [round(i * n / k) for i in range(k + 1)]
    tails = [tail(values[a:b])[0] for a, b in zip(bounds, bounds[1:])]
    size = n / k
    return (statistics.median(tails), 100.0 * (size - TAIL_BEYOND) / size,
            TAIL_BEYOND, k)


def latencies(rows):
    """Client latency per request in ms, from send to complete reply.

    rows are [sent, done, status]. Failed requests get MISS_MS.
    """
    return [done - sent if status == OK else MISS_MS
            for sent, done, status in rows]


def area_um2(px):
    """Mask area of a px x px raster at PIXEL_NM in square micrometres."""
    return (px * PIXEL_NM / 1000.0) ** 2


def um2_per_s(rows, px, window_ms):
    """Mask area answered correctly per second of the timed window."""
    ok = sum(1 for r in rows if r[2] == OK)
    return ok * area_um2(px) / (window_ms / 1000.0)


def counts(rows):
    status = [r[2] for r in rows]
    return {
        "sent": len(status),
        "ok": status.count(OK),
        "failed": len(status) - status.count(OK),
        "mismatch": status.count(MISMATCH),
        "busy": status.count(BUSY),
        "error": status.count(ERROR),
        "lost": status.count(LOST),
    }


def end_to_end(raw):
    """Metrics and details of a timed run.

    Returns (metrics, details): metrics maps every END_TO_END name to its
    value; details holds the counts and the tail percentile and sample
    count.
    """
    load = raw["requests"]
    rows = load["rows"]
    lat = latencies(rows)
    tail_ms, tail_pct, beyond, chunks = chunked_tail(lat)
    metrics = {
        "latency_p50_ms": statistics.median(lat),
        "latency_tail_ms": tail_ms,
        "um2_per_s": um2_per_s(rows, raw["px"], load["end_ms"]),
        "setup_s": statistics.median(raw["setup_s"]),
        "server_rss_mb": raw["server_rss_kb"] / 1024.0,
    }
    c = counts(rows)
    details = dict(c)
    details.update({
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "tail_samples": len(lat),
        "tail_chunks": chunks,
        "setup_s_all": raw["setup_s"],
        "warmup_mismatch": raw["warmup_mismatch"],
        "prime_failed": raw["prime_failed"],
        "server_exit": raw["server_exit"],
        "calib_ms": [raw["calib_before_ms"], raw["calib_after_ms"]],
        "host_steal_pct": raw["host_steal_pct"],
        "setup_rss_mb": [raw["setup_rss_hwm_kb"] / 1024.0,
                         raw["setup_rss_kb"] / 1024.0],
    })
    return metrics, details


def gemm_bytes(m, k, l, batch, elem_a):
    """Bytes a batch of conv GEMMs moves, from tensor sizes: the weight
    once (elem_a bytes per element), then fp32 B and C per sample."""
    return m * k * elem_a + batch * 4 * (k * l + m * l)


def layers(raw):
    """Per-layer metrics and details of a traced `layers` run."""
    sock = raw["socket"]["rows"]
    sched_rows = raw["sched_requests"]["rows"]
    sock_lat = latencies(sock)
    sched_lat = latencies(sched_rows)
    sched = raw["sched"]
    server = raw["server_metrics"]["counters"]
    gauges = raw["server_metrics"]["gauges"]
    batch_ms = raw["batch_ms"]
    batch_mean = sched["batched_requests"] / max(1, sched["batches"])
    large = raw["px"] > 128
    engine_ms = (raw["large_ms"] if large
                 else batch_ms[min(8, max(1, round(batch_mean))) - 1])
    sock_c, sched_c = counts(sock), counts(sched_rows)
    share = sched["replica_requests"]

    m = {
        "loadgen.mismatch": (sock_c["mismatch"] + sched_c["mismatch"]
                             + raw["warmup_mismatch"]),
        "host.calib_ms": statistics.mean(
            [raw["calib_before_ms"], raw["calib_after_ms"]]),
        "net.encode_us.tile": raw["codec_us"]["encode.tile"],
        "net.encode_us.large": raw["codec_us"]["encode.large"],
        "net.decode_us.tile": raw["codec_us"]["decode.tile"],
        "net.decode_us.large": raw["codec_us"]["decode.large"],
        "net.overhead_ms": statistics.median(sock_lat)
                           - statistics.median(sched_lat),
        "serve.busy_rejected": server.get("serve.busy_rejected", 0),
        "serve.dropped_replies": server.get("serve.dropped_replies", 0),
        "serve.protocol_errors": server.get("serve.protocol_errors", 0),
        "sched.latency_ms.p50": statistics.median(sched_lat),
        "sched.latency_ms.tail": chunked_tail(sched_lat)[0],
        "sched.overhead_ms": statistics.median(sched_lat) - engine_ms,
        "sched.batch_mean": batch_mean,
        "sched.effective_delay_us": sched["effective_delay_us"],
        "sched.queue_depth_max": sched["queue_depth_max"],
        "sched.rejected": sched["rejected"],
        "engine.batch_ms.b1": batch_ms[0],
        "engine.batch_ms.b2": batch_ms[1],
        "engine.batch_ms.b4": batch_ms[3],
        "engine.batch_ms.b8": batch_ms[7],
        "engine.large_ms": raw["large_ms"],
        "engine.i8_batch_ms.b1": raw["i8_batch_ms"][0],
        "engine.i8_batch_ms.b2": raw["i8_batch_ms"][1],
        "engine.load_ms": raw["engine_load_ms"],
        "engine.plan_count": sched["plans_before"],
        "engine.arena_bytes": gauges.get("engine.arena_bytes", 0),
        "engine.heap_allocs_per_batch": raw["heap_allocs_per_batch"],
        "engine.plan_fallbacks": sched["plan_fallbacks"],
        "pool.replica_share_max": max(share) / max(1, sum(share)),
        "pool.rejected": sched["pool_rejected"],
        "fft.gp_us.b8": raw["fft_gp_us"],
        "server.cpu_ms_per_req": raw["server_cpu_ms"] / max(1, sock_c["ok"]),
    }
    shapes = [g["shape"] for g in raw["gemm"]]
    if tuple(shapes) != GEMM_SHAPES:
        raise ValueError(f"largest conv GEMMs are {shapes}, expected "
                         f"{list(GEMM_SHAPES)}: the model changed")
    for g in raw["gemm"]:
        s, mm, k, l, b = g["shape"], g["m"], g["k"], g["l"], g["batch"]
        m["gemm.fp32_ms." + s] = g["fp32_ms"]
        m["gemm.int8_ms." + s] = g["int8_ms"]
        m["gemm.madds." + s] = b * mm * k * l
        m["gemm.fp32_bytes." + s] = gemm_bytes(mm, k, l, b, 4)
        m["gemm.int8_bytes." + s] = gemm_bytes(mm, k, l, b, 1)

    client_p50 = statistics.median(sock_lat)
    codec_ms = (raw["codec_us"]["encode.large" if large else "encode.tile"]
                + raw["codec_us"]["decode.large" if large else "decode.tile"]
                ) * 2 / 1000.0
    sched_share = m["sched.overhead_ms"]
    decomposition = {
        "client_p50_ms": client_p50,
        "net_codec_ms": codec_ms,
        "sched_ms": sched_share,
        "engine_ms": engine_ms,
        "engine_batch": 1 if large else min(8, max(1, round(batch_mean))),
        "unexplained_ms": client_p50 - codec_ms - sched_share - engine_ms,
    }
    details = {
        "socket": sock_c,
        "sched": sched_c,
        "plans_before": sched["plans_before"],
        "plans_after": sched["plans_after"],
        "batch_ms_all": batch_ms,
        "decomposition": decomposition,
        "calib_ms": [raw["calib_before_ms"], raw["calib_after_ms"]],
        "trace": raw["trace"],
        "ops_note": "gemm madds and bytes are computed from tensor sizes",
    }
    return m, details
