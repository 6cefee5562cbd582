"""Metric table and statistics of the end-to-end benchmark.

Every number the benchmark reports is derived here from the raw JSON
that e2e_driver (bench/e2e/driver.cpp) prints, so the arithmetic is in one place and
test_bench.py can pin it on hand-computed inputs.

Kinds: "measured" is host wall clock or resident memory, "modeled" is a
value the program computes from its own cost or memory model, "count" is
a deterministic count (or a ratio of counts) that repeats exactly for a
fixed seed.
"""

import math
import statistics
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    kind: str  # measured | modeled | count
    better: str  # lower | higher
    bound: float | None = None  # share of the baseline median (end-to-end only)
    floor: float = 0.0  # absolute bound floor, in the metric's unit


# A bound must be at least the spread (quartile distance ÷ median) of ten
# runs on distinct seeds, or the bound flags the host's noise as a
# regression. On the shared 4-vCPU VM of README "End-to-end metrics" the
# timings of relay_mesh_sharded spread 19-25%, so 10% bounds, the target,
# are not met; the timing bounds are 25%, the largest BENCHMARK.json allows.
END_TO_END = [
    Metric("setup_s", "s", "measured", "lower", 0.25, floor=0.02),
    Metric("wall_ms_per_sim_s", "ms/sim_s", "measured", "lower", 0.25),
    Metric("wall_us_per_delivery", "us/delivery", "measured", "lower", 0.25),
    Metric("publish_ms_p50", "ms", "measured", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "measured", "lower", 0.05),
]

# Shard lanes reported per workload: lane 0 is the global (coordinator)
# lane, lanes 1..2 are scheduler shards (lane 2 is idle on serial worlds).
LANES = 3

PER_LAYER = [
    Metric("harness.build_s", "s", "measured", "lower"),
    Metric("harness.collect_s", "s", "measured", "lower"),
    Metric("gossipsub.subscribe_s", "s", "measured", "lower"),
    Metric("gossipsub.warmup_s", "s", "measured", "lower"),
    Metric("gossipsub.delivered", "count", "count", "higher"),
    Metric("gossipsub.duplicates", "count", "count", "lower"),
    Metric("gossipsub.forwarded", "count", "count", "lower"),
    Metric("gossipsub.rejected", "count", "count", "lower"),
    Metric("gossipsub.ignored", "count", "count", "lower"),
    Metric("gossipsub.payload_bytes", "bytes", "count", "lower"),
    Metric("gossipsub.control_bytes", "bytes", "count", "lower"),
    Metric("gossipsub.first_delivery_ratio", "ratio", "count", "higher"),
    Metric("net.deliver_busy_s", "s", "measured", "lower"),
    Metric("net.deliver_ns_p50", "ns", "measured", "lower"),
    Metric("net.deliver_ns_p99", "ns", "measured", "lower"),
    Metric("net.frames_delivered", "count", "count", "lower"),
    Metric("net.bytes_sent", "bytes", "count", "lower"),
    Metric("sim.events_executed", "count", "count", "lower"),
    Metric("sim.timer_fires", "count", "count", "lower"),
    Metric("sim.peak_pending", "count", "count", "lower"),
    Metric("sim.other_s", "s", "measured", "lower"),
    *[Metric(f"sim.lane{k}.deliver_busy_frac", "ratio", "measured", "lower")
      for k in range(1, LANES)],
    *[Metric(f"sim.lane{k}.events", "count", "count", "lower") for k in range(LANES)],
    Metric("rln.publish_busy_s", "s", "measured", "lower"),
    Metric("rln.publish_ms_p90", "ms", "measured", "lower"),
    Metric("rln.publish_calls", "count", "count", "lower"),
    Metric("rln.proof_verifications", "count", "count", "lower"),
    Metric("rln.proof_cache_hits", "count", "count", "higher"),
    Metric("rln.verifications_per_delivery", "ratio", "count", "lower"),
    Metric("rln.double_signals", "count", "count", "higher"),
    Metric("rln.slashes_submitted", "count", "count", "lower"),
    Metric("rln.dropped", "count", "count", "lower"),
    Metric("eth.register_s", "s", "measured", "lower"),
    Metric("group_sync.registrations", "count", "count", "lower"),
    Metric("group_sync.slashes", "count", "count", "lower"),
    Metric("group_sync.root_updates", "count", "count", "lower"),
    Metric("group_sync.sync_bytes", "bytes", "count", "lower"),
    Metric("eth.blocks", "count", "count", "lower"),
    Metric("eth.slash_tx_useful_ratio", "ratio", "count", "higher"),
    Metric("mem.router_bytes", "bytes", "modeled", "lower"),
    Metric("mem.mcache_bytes", "bytes", "modeled", "lower"),
    Metric("mem.nullifier_bytes", "bytes", "modeled", "lower"),
    Metric("mem.merkle_bytes", "bytes", "modeled", "lower"),
    Metric("mem.event_pool_bytes", "bytes", "modeled", "lower"),
    Metric("mem.network_bytes", "bytes", "modeled", "lower"),
    Metric("trace.overhead_ratio", "ratio", "measured", "lower"),
]

METRICS = {m.name: m for m in [*END_TO_END, *PER_LAYER]}

# A traced run fails when tracing slows its traffic by more than this.
TRACE_OVERHEAD_LIMIT = 1.10


# -- statistics ---------------------------------------------------------------

def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0])
    q = statistics.quantiles(values, n=4)
    return (q[0], q[2])


def percentile(values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def bucket_range(b):
    """[lower, upper) ns of e2e_driver's log-linear histogram bucket b.

    Values below 8 ns have a bucket each; every octave [2^m, 2^(m+1))
    above splits into 4 equal buckets numbered 4m .. 4m+3.
    """
    if b < 8:
        return (b, b + 1)
    m, s = divmod(b, 4)
    width = 1 << (m - 2)
    lower = (4 + s) * width
    return (lower, lower + width)


def hist_percentile(counts, q):
    """Midpoint of the bucket holding the ceil(q * total)-th sample."""
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for b, c in enumerate(counts):
        seen += c
        if seen >= rank:
            lo, hi = bucket_range(b)
            return (lo + hi) / 2
    raise AssertionError("unreachable: rank <= total")


def failed_ratio(failed, attempted):
    return failed / attempted


def pairs_won(base, change, better):
    """Share of (base[i], change[i]) pairs the change reads better in.

    Ties count for neither side; the denominator is every pair run.
    """
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if (b < a if better == "lower" else b > a))
    return wins / len(pairs)


# A gain needs at least this many (base, change) pairs.
MIN_PAIRS_FOR_GAIN = 10


def verdict(base, change, metric):
    """improved | within bound | regressed | unresolved; compare.py documents the rules."""
    mb, mc = median(base), median(change)
    sign = 1 if metric.better == "lower" else -1
    worse_by = sign * (mc - mb)
    allowed = max(metric.bound * abs(mb), metric.floor)
    q1, q3 = quartiles(base)
    if (min(len(base), len(change)) >= MIN_PAIRS_FOR_GAIN
            and pairs_won(base, change, metric.better) >= 0.9 and -worse_by > q3 - q1):
        return "improved"
    every_better = all(sign * (c - b) < 0 for b in base for c in change)
    c1, c3 = quartiles(change)
    widest = max(q3 - q1, c3 - c1)
    if widest > allowed and not every_better:
        return "unresolved"
    return "regressed" if worse_by > allowed else "within bound"


# -- derivation from e2e_driver's raw output ---------------------------------

# Checks in e2e_driver's output that count failures; each must read 0.
FAILURE_CHECKS = ("honest_publish_failed", "missing_deliveries", "violators_active",
                  "honest_inactive")


def attempted_failed(raw):
    """Attempts: honest publishes, expected honest deliveries, violators
    expected to be slashed and honest members expected to stay active."""
    c, k = raw["checks"], raw["counters"]
    attempted = (k["honest_messages"] + c["expected_deliveries"] + k["violators"]
                 + c["honest_members"])
    return attempted, sum(c[name] for name in FAILURE_CHECKS)


def traffic_s(raw):
    """Host time of the whole traffic phase: gap, epochs and drain."""
    return sum(raw["segment_wall_s"])


def overhead_ratio(raw):
    """Traced ÷ untraced wall time of a traced run's epochs, median over the
    epochs. The untraced twin is a second world with the same seed; the
    driver runs each segment on both worlds back to back, alternating which
    goes first, so host drift falls on both sides of every pair."""
    traced, twin = raw["segment_wall_s"], raw["twin"]["segment_wall_s"]
    return median([traced[i] / twin[i] for i in range(1, len(traced) - 1)])


def end_to_end(raw):
    """Traffic rates are medians over the run's epochs (segments 1..N; the
    wait for the first epoch and the drain are timed but not in them)."""
    wall, sim, dl = raw["segment_wall_s"], raw["segment_sim_s"], raw["segment_deliveries"]
    epochs = range(1, len(wall) - 1)
    return {
        "setup_s": median(raw["setup"]["total"]),
        "wall_ms_per_sim_s": median([wall[i] * 1e3 / sim[i] for i in epochs]),
        "wall_us_per_delivery": median([wall[i] * 1e6 / dl[i] for i in epochs if dl[i]]),
        "publish_ms_p50": percentile(raw["publish_ms"], 0.50),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def per_layer(raw):
    k, lay = raw["counters"], raw["layers"]
    setup = raw["setup"]
    # Shards dispatch frames side by side, so the traffic time contains the
    # mean lane busy time, not the sum.
    deliver_per_shard_s = lay["deliver_busy_s"] / raw["shards"]
    # The phases of the repetition whose total is the reported setup_s.
    rep = setup["total"].index(statistics.median_low(setup["total"]))
    lanes_busy = lay["lane_busy_s"] + [0.0] * (LANES - len(lay["lane_busy_s"]))
    lanes_events = lay["lane_events"] + [0] * (LANES - len(lay["lane_events"]))
    out = {
        "harness.build_s": setup["build"][rep],
        "harness.collect_s": raw["collect_s"],
        "gossipsub.subscribe_s": setup["subscribe"][rep],
        "gossipsub.warmup_s": setup["warmup"][rep],
        "gossipsub.delivered": k["gs_delivered"],
        "gossipsub.duplicates": k["gs_duplicates"],
        "gossipsub.forwarded": k["gs_forwarded"],
        "gossipsub.rejected": k["gs_rejected"],
        "gossipsub.ignored": k["gs_ignored"],
        "gossipsub.payload_bytes": k["gs_payload_bytes"],
        "gossipsub.control_bytes": k["gs_control_bytes"],
        "gossipsub.first_delivery_ratio": k["gs_delivered"] / k["frames_delivered"],
        "net.deliver_busy_s": lay["deliver_busy_s"],
        "net.deliver_ns_p50": hist_percentile(lay["deliver_hist"], 0.50),
        "net.deliver_ns_p99": hist_percentile(lay["deliver_hist"], 0.99),
        "net.frames_delivered": k["frames_delivered"],
        "net.bytes_sent": k["bytes_sent"],
        "sim.events_executed": k["events_executed"],
        "sim.timer_fires": k["timer_fires"],
        "sim.peak_pending": k["peak_pending"],
        "sim.other_s": traffic_s(raw) - raw["publish_busy_s"] - deliver_per_shard_s,
        "rln.publish_busy_s": raw["publish_busy_s"],
        "rln.publish_ms_p90": percentile(raw["publish_ms"], 0.90),
        "rln.publish_calls": k["publish_calls"],
        "rln.proof_verifications": k["proof_verifications"],
        "rln.proof_cache_hits": k["proof_cache_hits"],
        "rln.verifications_per_delivery": k["proof_verifications"] / k["gs_delivered"],
        "rln.double_signals": k["double_signals"],
        "rln.slashes_submitted": k["slashes_submitted"],
        "rln.dropped": k["rln_dropped"],
        "eth.register_s": setup["register"][rep],
        "group_sync.registrations": k["registrations"],
        "group_sync.slashes": k["slashes"],
        "group_sync.root_updates": k["root_updates"],
        "group_sync.sync_bytes": k["sync_bytes"],
        "eth.blocks": k["blocks"],
        # Vacuously 1 when no slash transaction was sent.
        "eth.slash_tx_useful_ratio": (k["slashes"] / k["slashes_submitted"]
                                      if k["slashes_submitted"] else 1.0),
        "mem.router_bytes": lay["mem_router_bytes"],
        "mem.mcache_bytes": lay["mem_mcache_bytes"],
        "mem.nullifier_bytes": lay["mem_nullifier_bytes"],
        "mem.merkle_bytes": lay["mem_merkle_bytes"],
        "mem.event_pool_bytes": lay["mem_event_pool_bytes"],
        "mem.network_bytes": lay["mem_network_bytes"],
        "trace.overhead_ratio": overhead_ratio(raw),
    }
    for lane in range(1, LANES):
        out[f"sim.lane{lane}.deliver_busy_frac"] = lanes_busy[lane] / traffic_s(raw)
    for lane in range(LANES):
        out[f"sim.lane{lane}.events"] = lanes_events[lane]
    return out
