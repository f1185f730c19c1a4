"""synth_cold: serial one-shot compiles in one long-lived process.

Calls :func:`repro.serve.jobs.execute_spec` — the code path of
``repro-hls synth/schedule --json`` — on a size-stratified set of
distinct designs, round after round until the run's seconds of compile
time are spent, finishing the round so every run compiles whole copies
of the same multiset.  Nothing of :mod:`repro.serve`'s request path
runs, so serve-side changes must show no change here.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import subprocess
import sys
import time

import audit
import counters
import inputs
import stats
from catalog import SLO_MS
from common import Ctx, Outcome, cpu_seconds, trace_overhead
from procs import vm_hwm_kb

#: Fresh-process set-up samples per run (median reported).
SETUP_REPEATS = 3
#: Committed counter sets per seed (see record_counters.py).
BASELINE = "perfbench/baselines/synth_cold_counters.json"


def _setup(ctx: Ctx, outcome: Outcome, design) -> None:
    body_path = ctx.out / "coldstart-body.json"
    body_path.write_text(json.dumps({"algorithm": design.algorithm,
                                     "body": design.body}))
    script = ctx.root / "perfbench" / "coldstart.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        code = subprocess.run(
            [sys.executable, str(script), str(ctx.root), str(body_path)],
            cwd=ctx.root, stdin=subprocess.DEVNULL, timeout=120,
        ).returncode
        samples.append(time.perf_counter() - start)
        outcome.check(None if code == 0 else f"exit {code}", "cold start")
    outcome.e2e["setup_s"] = statistics.median(samples)
    outcome.report["setup_samples_s"] = samples


def counter_pass(designs):
    """Compile every design once, in order, from an empty mux memo.

    Returns the reference texts and the exact counter set.  Run first in
    a fresh process, the counts are the same on every run of one seed.
    """
    from repro.allocation.mux import clear_mux_memo

    clear_mux_memo()
    texts, snapshots, _walls = audit.references(designs)
    return texts, counters.counter_set(snapshots)


def run(ctx: Ctx) -> Outcome:
    from repro.serve.jobs import execute_spec, normalize_spec, response_text

    outcome = Outcome()
    designs = inputs.synth_cold_designs(ctx.seed)
    if not ctx.trace:
        _setup(ctx, outcome, inputs.paper_examples()[0])
    specs = [normalize_spec(d.algorithm, d.body) for d in designs]

    texts, observed = counter_pass(designs)
    source, rows = counters.drift_report(
        ctx.seed, observed, ctx.root / BASELINE,
        ctx.out / "counters" / "synth_cold.json",
    )
    if source is not None:
        print(counters.render_diff(rows, source))
    outcome.report["counters"] = observed
    outcome.report["counter_drift"] = [list(row) for row in rows]

    # Timed rounds.  Only the execute_spec call is on the clock; the
    # byte comparison with the counter pass happens between calls.  The
    # benchmark's own inputs are no part of a compile, so they are
    # frozen out of the collector's full passes; the program's own
    # garbage is still collected as usual.
    gc.collect()
    gc.freeze()
    latencies, traced_flags, traced_jobs = [], [], []
    busy = 0.0
    round_index = 0
    cpu_start, wall_start = cpu_seconds(), time.perf_counter()
    clock = time.perf_counter
    while busy < ctx.seconds:
        traced = ctx.trace and round_index % 2 == 1
        for index, spec in enumerate(specs):
            start = clock()
            payload, perf = execute_spec(spec)
            end = clock()
            if traced:
                ctx.spans.add("synth.job", start, end)
                traced_jobs.append((index, end - start, perf))
            latencies.append(end - start)
            traced_flags.append(traced)
            busy += end - start
            outcome.check(
                None if response_text(payload) == texts[index]
                else "result differs from the counter pass",
                designs[index].label,
            )
        round_index += 1
    cpu_frac = (cpu_seconds() - cpu_start) / (time.perf_counter() - wall_start)
    # Read before the audit, whose checker needs more memory than any
    # compile: this is the compiler's own peak.
    peak_rss_mb = vm_hwm_kb(os.getpid()) / 1024.0

    failures, audit_s = audit.audit(
        designs, inputs.rng_for("synth_cold", ctx.seed, "vectors"))
    outcome.add_audit(len(designs), failures)

    summary = stats.latency_summary(latencies)
    outcome.report.update(latency=summary, rounds=round_index,
                          designs=len(designs), slo_ms=SLO_MS["synth_cold"])
    outcome.e2e.update(
        throughput_jobs_per_s=len(latencies) / busy,
        latency_p50_ms=summary["p50_ms"],
        latency_p99_ms=summary["p99_ms"],
        slo_met_frac=sum(1 for x in latencies
                         if x * 1e3 <= SLO_MS["synth_cold"]) / len(latencies),
        peak_rss_mb=peak_rss_mb,
    )
    if ctx.trace:
        job_designs = [designs[i] for i, _w, _p in traced_jobs]
        outcome.layers.update(audit.core_layers(
            job_designs, [p for _i, _w, p in traced_jobs],
            [w for _i, w, _p in traced_jobs], observed))
        outcome.layers.update(audit.request_path_layers(designs, texts, ctx.spans))
        outcome.layers.update({
            "check.audit_ms": stats.p50(audit_s) * 1e3,
            "loadgen.cpu_frac": cpu_frac,
            "trace.overhead_frac": trace_overhead(latencies, traced_flags),
        })
    return outcome
