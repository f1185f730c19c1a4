"""fleet_mix: an open loop against ``repro-hls serve --shards 2`` (RF-2).

Arrivals come at one fixed rate, well below capacity, with at most
``CONNECTIONS`` requests in flight, and latency runs from each
arrival's due time.  In a seeded fixed ratio an arrival is either a
fresh design — a miss that goes router -> forward -> shard queue ->
batcher -> scheduler -> replica write — or a resubmission of an earlier
one, answered from the router's L2.  It is the only load with cache
writes beside reads and with the router-to-shard hop.

It is not listed in ``BENCHMARK.json``: its latencies follow the host's
CPU steal more than the program (see README.md).  serve_hit's traced
run calls :func:`run` for the layers only this path has.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import audit
import counters
import inputs
import prom
import reference
import stats
from catalog import SLO_MS
from common import (
    Ctx,
    Outcome,
    boot_service,
    cpu_seconds,
    load_e2e,
    open_loop,
    send,
    trace_overhead,
)
from procs import descendants

#: Offered load (arrivals per second).  At this rate two connections
#: are rarely both busy, so arrivals go out on time (lag p99 a few ms
#: against a ~20 ms median); near saturation the figures were measured
#: to be the noisiest.  30/s for the run's seconds gives the >= 1000
#: samples a p99 with ten samples beyond it needs.
RATE = 30.0
#: Share of fresh designs.  Most arrivals are misses, so the median is
#: the miss path and the rest are L2 hits; shares near one half would
#: put the median on the boundary between the two latency modes, where
#: it jumps between runs.
FRESH_FRAC = 0.7
#: Designs submitted during set-up, ``WARM_CONCURRENCY`` at a time, so
#: resubmissions can start at once and every shard's warm process pool
#: is up before the clock starts (a pool that starts mid-run would move
#: ``peak_rss_mb`` by its workers' size).
WARM = 32
WARM_CONCURRENCY = 8
#: A design comes back no sooner than this many arrivals after it was
#: first sent (two thirds of a second), so its result is in the L2 by then.
MIN_GAP = 20
SETUP_REPEATS = 3
SHARDS = 2


def service_layers(jobs, walls, before, after) -> dict:
    """Queue/batcher layer figures from job headers and ``/metrics``."""
    batches = prom.delta(before, after, "repro_serve_batch_size_count")
    return {
        "queue.wait_ms": stats.p50([j["queue_seconds"] for j in jobs]) * 1e3,
        "batcher.run_ms": stats.p50([j["run_seconds"] for j in jobs]) * 1e3,
        "batcher.dispatch_ms": stats.p50(
            [j["run_seconds"] - w for j, w in zip(jobs, walls)]) * 1e3,
        "batcher.mean_batch_size": prom.delta(
            before, after, "repro_serve_batch_size_sum") / batches,
    }


def run(ctx: Ctx) -> Outcome:
    outcome = Outcome()
    designs, arrivals = inputs.fleet_plan(
        ctx.seed, ctx.seconds, RATE, FRESH_FRAC, WARM, MIN_GAP)
    warmup = inputs.paper_examples()[0]
    texts, snapshots, walls = audit.references(designs + [warmup])
    tails = [reference.expected_tail(text) for text in texts]
    # The router answers a resubmission from its L2 ("hit"); a fresh
    # design is computed on a shard ("miss").
    expects = ["miss" if a.fresh else "hit" for a in arrivals]
    outcome.report["service"] = {
        "shards": SHARDS, "replication": 2, "workers": "default (cpu count)",
        "rate_per_s": RATE, "fresh_frac": FRESH_FRAC, "arrivals": len(arrivals),
        "fresh_designs": sum(a.fresh for a in arrivals),
    }

    service = boot_service(
        ctx, outcome, ["--shards", str(SHARDS)], warmup.request_bytes,
        tails[-1], 1 if ctx.trace else SETUP_REPEATS)
    try:
        port = service.port
        with ThreadPoolExecutor(WARM_CONCURRENCY) as pool:
            warmed = list(pool.map(
                lambda d: send(port, designs[d].request_bytes(port),
                               tails[d], "miss"),
                range(WARM)))
        for index, (failure, _job) in enumerate(warmed):
            outcome.check(failure, f"warm {designs[index].label}")
        outcome.report["service"]["processes"] = 1 + len(
            descendants(service.process.pid))
        before = prom.scrape(port)
        requests = [design.request_bytes(port) for design in designs]
        cpu_start, wall_start = cpu_seconds(), time.perf_counter()
        records = open_loop(ctx, port, requests, tails, arrivals, expects)
        cpu_frac = (cpu_seconds() - cpu_start) / (time.perf_counter() - wall_start)
        # Let the coalesced replica writes of the last misses land.
        time.sleep(0.2)
        after = prom.scrape(port)
        outcome.e2e["peak_rss_mb"] = service.peak_rss_mb()
    finally:
        service.stop()

    load_e2e(ctx, outcome, records, SLO_MS["fleet_mix"])
    lag = stats.percentile([r.sent - r.due for r in records], 99)[0]
    outcome.report["loadgen_lag_p99_ms"] = lag * 1e3
    if ctx.trace:
        traced = [r for r in records if r.traced]
        misses = [r for r in traced if r.job.get("cache") == "miss"]
        hits = [r for r in traced if r.job.get("shard") == "router"]
        layers = outcome.layers
        layers.update(audit.core_layers(
            designs, snapshots[:-1], walls[:-1],
            counters.counter_set(snapshots[:-1])))
        layers.update(audit.request_path_layers(
            designs[:WARM], texts[:WARM], ctx.spans))
        layers.update(service_layers(
            [r.job for r in misses], [walls[r.design] for r in misses],
            before, after))
        # The first timed fresh designs stand for all of them.
        audited = designs[WARM:2 * WARM]
        failures, audit_s = audit.audit(
            audited, inputs.rng_for("fleet_mix", ctx.seed, "vectors"))
        outcome.add_audit(len(audited), failures)
        l2_hits = prom.delta(before, after, "repro_serve_cache_hits_total",
                             shard="router")
        l2_misses = prom.delta(before, after, "repro_serve_cache_misses_total",
                               shard="router")
        executed = [
            prom.delta(before, after, "repro_serve_jobs_executed_total",
                       shard=f"shard-{index}")
            for index in range(SHARDS)
        ]
        layers.update({
            "router.l2_hit_ratio": l2_hits / (l2_hits + l2_misses),
            "router.hit_rtt_ms": stats.p50([r.done - r.sent for r in hits]) * 1e3,
            "router.forward_ms": stats.p50(
                [r.done - r.sent - r.job["total_seconds"] for r in misses]) * 1e3,
            "router.replica_puts_per_miss": prom.delta(
                before, after, "repro_serve_replica_puts_total") / l2_misses,
            "router.replica_probe_hits": prom.delta(
                before, after, "repro_serve_replica_probe_hits_total"),
            "router.failovers": prom.delta(
                before, after, "repro_serve_router_failovers_total"),
            "hashring.load_imbalance": max(executed) / (sum(executed) / SHARDS),
            "http.rtt_ms": stats.p50([r.done - r.sent for r in traced]) * 1e3,
            "cache.hit_ratio": l2_hits / (l2_hits + l2_misses),
            "check.audit_ms": stats.p50(audit_s) * 1e3,
            "loadgen.lag_p99_ms": lag * 1e3,
            "loadgen.cpu_frac": cpu_frac,
            "trace.overhead_frac": trace_overhead(
                [r.latency for r in records], [r.traced for r in records]),
        })
    return outcome
