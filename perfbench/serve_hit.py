"""serve_hit: a closed loop of cache hits against one ``repro-hls serve``.

Set-up warms the default-config service with every design of a seeded
8-100-op working set (smaller than ``cache_entries``), then two
connections resubmit ``?wait=1`` requests drawn from that set, encoded
before the clock starts.  Every timed request must be a hit, so this
isolates the request path — HTTP, ``normalize_spec``,
``key_and_fingerprint``, ``ResultCache`` and response encoding — and
the scheduler does no work.
"""

from __future__ import annotations

import dataclasses
import time

import audit
import counters
import fleet_mix
import inputs
import prom
import reference
import stats
from catalog import SLO_MS
from common import (
    Ctx,
    Outcome,
    boot_service,
    closed_loop,
    cpu_seconds,
    load_e2e,
    send,
    trace_overhead,
)
from spans import Spans

#: Service boots per run (median reported as ``setup_s``).
SETUP_REPEATS = 3

#: Layers only the sharded path has.  serve_hit's traced run takes them
#: from a fleet_mix run of the same seed and length that follows it.
FLEET_LAYERS = (
    "queue.wait_ms",
    "batcher.run_ms",
    "batcher.dispatch_ms",
    "batcher.mean_batch_size",
    "router.l2_hit_ratio",
    "router.hit_rtt_ms",
    "router.forward_ms",
    "router.replica_puts_per_miss",
    "router.replica_probe_hits",
    "router.failovers",
    "hashring.load_imbalance",
    "loadgen.lag_p99_ms",
)


def warm(port: int, outcome: Outcome, designs, tails) -> None:
    """Submit each design once; each must be a miss."""
    for design, tail in zip(designs, tails):
        failure, _job = send(port, design.request_bytes(port), tail, "miss")
        outcome.check(failure, f"warm {design.label}")


def run(ctx: Ctx) -> Outcome:
    outcome = Outcome()
    designs = inputs.serve_hit_designs(ctx.seed)
    sequence = inputs.serve_hit_sequence(ctx.seed, len(designs))
    warmup = inputs.paper_examples()[0]
    texts, snapshots, walls = audit.references(designs + [warmup])
    tails = [reference.expected_tail(text) for text in texts]
    outcome.report["service"] = {"shards": 1, "replication": 1,
                                 "workers": "default (cpu count)",
                                 "working_set": len(designs)}

    service = boot_service(
        ctx, outcome, [], warmup.request_bytes, tails[-1],
        1 if ctx.trace else SETUP_REPEATS)
    try:
        port = service.port
        warm(port, outcome, designs, tails)
        before = prom.scrape(port)
        requests = [design.request_bytes(port) for design in designs]
        cpu_start, wall_start = cpu_seconds(), time.perf_counter()
        records = closed_loop(ctx, port, requests, tails, sequence, "hit")
        cpu_frac = (cpu_seconds() - cpu_start) / (time.perf_counter() - wall_start)
        after = prom.scrape(port)
        outcome.e2e["peak_rss_mb"] = service.peak_rss_mb()
    finally:
        service.stop()

    load_e2e(ctx, outcome, records, SLO_MS["serve_hit"])
    hits = prom.delta(before, after, "repro_serve_cache_hits_total")
    misses = prom.delta(before, after, "repro_serve_cache_misses_total")
    outcome.report["cache_lookups"] = {"hits": hits, "misses": misses}
    if ctx.trace:
        failures, audit_s = audit.audit(
            designs, inputs.rng_for("serve_hit", ctx.seed, "vectors"))
        outcome.add_audit(len(designs), failures)
        layers = outcome.layers
        layers.update(audit.core_layers(
            designs, snapshots[:-1], walls[:-1],
            counters.counter_set(snapshots[:-1])))
        layers.update(audit.request_path_layers(designs, texts[:-1], ctx.spans))
        rtt = stats.p50([r.done - r.sent for r in records if r.traced])
        layers.update({
            "cache.hit_ratio": hits / (hits + misses),
            "http.rtt_ms": rtt * 1e3,
            "http.residual_ms": rtt * 1e3 - sum(
                layers[name] for name in ("jobs.normalize_ms", "jobs.key_ms",
                                          "cache.get_ms", "jobs.encode_ms")),
            "check.audit_ms": stats.p50(audit_s) * 1e3,
            "loadgen.cpu_frac": cpu_frac,
            "trace.overhead_frac": trace_overhead(
                [r.latency for r in records], [r.traced for r in records]),
        })
        fleet_ctx = dataclasses.replace(
            ctx, workload=fleet_mix.__name__, spans=Spans())
        fleet = fleet_mix.run(fleet_ctx)
        ctx.spans.records.extend(fleet_ctx.spans.records)
        outcome.attempted += fleet.attempted
        outcome.failed += fleet.failed
        outcome.problems.extend(fleet.problems[: max(0, 20 - len(outcome.problems))])
        layers.update((name, fleet.layers[name]) for name in FLEET_LAYERS)
        outcome.report["fleet_mix"] = {**fleet.report, "e2e": fleet.e2e}
    return outcome
