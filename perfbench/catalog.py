"""The benchmark's metric catalogue: names, units and SLO limits.

``BENCHMARK.json`` at the repository root lists the same names; the
test suite checks that the two agree, and :mod:`run` refuses to print a
result whose metric set differs from the catalogue.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: The workloads BENCHMARK.json lists.
WORKLOADS = ("synth_cold", "serve_hit")

#: The sharded path.  Its per-layer metrics are measured inside
#: serve_hit's traced run; it is not a benchmark workload because its
#: latencies follow the host's CPU steal (see README.md), but it can be
#: run on its own with ``--workload fleet_mix``.
FLEET_WORKLOAD = "fleet_mix"

#: Seed held out while the benchmark was written: re-check a claimed
#: gain on it before accepting the claim.
HELD_OUT_SEED = 9173

#: name -> (unit, better); PER_LAYER has the same shape.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "lower"),
    "throughput_jobs_per_s": ("jobs/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "slo_met_frac": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Latency limit behind ``slo_met_frac``, per workload (ms).  A failed
#: or refused request counts as a miss.
SLO_MS = {"synth_cold": 250.0, "serve_hit": 40.0, "fleet_mix": 150.0}

PER_LAYER: Dict[str, Tuple[str, str]] = {
    "jobs.normalize_ms": ("ms", "lower"),
    "jobs.key_ms": ("ms", "lower"),
    "dfg.decode_ms": ("ms", "lower"),
    "jobs.encode_ms": ("ms", "lower"),
    "jobs.wrap_ms": ("ms", "lower"),
    "cache.get_ms": ("ms", "lower"),
    "cache.hit_ratio": ("ratio", "higher"),
    "http.rtt_ms": ("ms", "lower"),
    "http.residual_ms": ("ms", "lower"),
    "core.run_ms": ("ms", "lower"),
    "core.frames_computed": ("count", "lower"),
    "core.candidates_evaluated": ("count", "lower"),
    "core.positions_evaluated": ("count", "lower"),
    "core.local_reschedules": ("count", "lower"),
    "core.vector_job_frac": ("ratio", "higher"),
    "allocation.mux_memo_hit_ratio": ("ratio", "higher"),
    "allocation.operand_memo_hit_ratio": ("ratio", "higher"),
    "allocation.reg_memo_hit_ratio": ("ratio", "higher"),
    "allocation.mux_canon_hit_ratio": ("ratio", "higher"),
    "queue.wait_ms": ("ms", "lower"),
    "batcher.run_ms": ("ms", "lower"),
    "batcher.dispatch_ms": ("ms", "lower"),
    "batcher.mean_batch_size": ("count", "higher"),
    "router.l2_hit_ratio": ("ratio", "higher"),
    "router.hit_rtt_ms": ("ms", "lower"),
    "router.forward_ms": ("ms", "lower"),
    "router.replica_puts_per_miss": ("count", "lower"),
    "router.replica_probe_hits": ("count", "higher"),
    "router.failovers": ("count", "lower"),
    "hashring.load_imbalance": ("ratio", "lower"),
    "loadgen.lag_p99_ms": ("ms", "lower"),
    "loadgen.cpu_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
    "check.audit_ms": ("ms", "lower"),
}
