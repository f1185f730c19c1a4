"""Correctness gate and in-process per-layer timings.

Both run outside the timed window.  The gate audits each design through
``execute_spec(verify=True)`` (the :mod:`repro.check` invariants) and
simulates every MFSA datapath against the reference evaluator on seeded
input vectors: through its controller
(:func:`repro.sim.rtl_executor.verify_controller_equivalence`), or, for
designs with conditional arms, through the dataflow executor
(:func:`repro.sim.executor.verify_equivalence`).  The controller model
runs exclusive arms that share a register as real hardware does, one
arm per execution, while the evaluator computes both arms
speculatively, so the two disagree on such designs by construction;
the repository's own conditional tests use the dataflow executor too.

The layer timings call each layer's public function on the workload's
own request bodies, the same calls the service makes on a cache hit.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional, Sequence, Tuple

import stats
from inputs import Design, input_vectors
from spans import Spans

#: Input vectors simulated per MFSA datapath.
VECTORS_PER_DESIGN = 3


def _simulate(spec, served_result, rng) -> Optional[str]:
    """Rebuild the MFSA result the way ``execute_spec`` does and simulate it."""
    from repro.core.mfsa import MFSAScheduler
    from repro.dfg.analysis import TimingModel, critical_path_length
    from repro.dfg.ops import standard_operation_set
    from repro.errors import SimulationError
    from repro.io.jsonio import dfg_from_json, synthesis_to_json
    from repro.library.ncr import datapath_library
    from repro.sim.executor import verify_equivalence
    from repro.sim.rtl_executor import verify_controller_equivalence

    dfg = dfg_from_json(spec["dfg_json"])
    timing = TimingModel(
        ops=standard_operation_set(mul_latency=spec["mul_latency"]),
        clock_period_ns=spec["clock_ns"],
    )
    result = MFSAScheduler(
        dfg,
        timing,
        datapath_library(),
        cs=spec["cs"] or critical_path_length(dfg, timing),
        style=spec["style"],
        latency_l=spec["latency_l"],
        pipelined_kinds=tuple(spec["pipelined"]),
    ).run()
    if json.loads(synthesis_to_json(result)) != served_result:
        return "simulated datapath differs from the served one"
    conditional = any(node.branch for node in dfg.nodes())
    simulate = verify_equivalence if conditional else verify_controller_equivalence
    for vector in input_vectors(list(dfg.inputs), rng, VECTORS_PER_DESIGN):
        try:
            simulate(result.datapath, vector)
        except SimulationError as error:
            return f"{simulate.__name__}: {error}"
    return None


def audit(designs: Sequence[Design], rng) -> Tuple[List[str], List[float]]:
    """Audit every design; returns (failures, per-design audit seconds).

    Audit time is ``verify=True`` minus ``verify=False`` wall time of
    the same design, run back to back.
    """
    from repro.serve.jobs import execute_spec, normalize_spec

    failures: List[str] = []
    audit_s: List[float] = []
    for design in designs:
        plain = normalize_spec(design.algorithm, design.body)
        checked = normalize_spec(design.algorithm, design.body, verify=True)
        start = time.perf_counter()
        payload, _perf = execute_spec(plain)
        middle = time.perf_counter()
        verified, _perf = execute_spec(checked)
        audit_s.append((time.perf_counter() - middle) - (middle - start))
        if not (verified.get("ok") and verified.get("verified")):
            failures.append(
                f"{design.label}: audit failed: "
                f"{verified.get('violations') or verified.get('error')}"
            )
            continue
        if verified["result"] != payload.get("result"):
            failures.append(f"{design.label}: verified run differs")
            continue
        if design.algorithm == "mfsa":
            problem = _simulate(plain, payload["result"], rng)
            if problem:
                failures.append(f"{design.label}: {problem}")
    return failures, audit_s


def references(designs: Sequence[Design]):
    """One-shot ``execute_spec`` of every design.

    Returns ``(texts, snapshots, wall_seconds)``; the texts are what a
    correct service must serve.
    """
    from repro.serve.jobs import execute_spec, normalize_spec, response_text

    texts, snapshots, walls = [], [], []
    for design in designs:
        spec = normalize_spec(design.algorithm, design.body)
        start = time.perf_counter()
        payload, perf = execute_spec(spec)
        walls.append(time.perf_counter() - start)
        if not payload.get("ok"):
            raise RuntimeError(f"{design.label}: reference run failed: {payload}")
        texts.append(response_text(payload))
        snapshots.append(perf)
    return texts, snapshots, walls


def run_seconds(snapshot) -> float:
    """Scheduler time of one job from its perf snapshot."""
    timers = snapshot.get("timers", {})
    return timers.get("mfsa.run", 0.0) + timers.get("mfs.run", 0.0)


def core_layers(designs: Sequence[Design], snapshots, walls,
                counts: Dict[str, int]) -> Dict[str, float]:
    """``core.*``, ``allocation.*`` and ``jobs.wrap_ms`` from perf snapshots."""
    from repro.core.kernel import resolve_kernel

    def ratio(prefix: str) -> float:
        hits = counts.get(f"{prefix}_hits", 0)
        total = hits + counts.get(f"{prefix}_misses", 0)
        return hits / total if total else 0.0

    runs = [run_seconds(s) for s in snapshots]
    return {
        "core.run_ms": stats.p50(runs) * 1e3,
        "jobs.wrap_ms": stats.p50([w - r for w, r in zip(walls, runs)]) * 1e3,
        "core.frames_computed": counts.get("mfsa.frames_computed", 0)
        + counts.get("mfs.frames_computed", 0),
        "core.candidates_evaluated": counts.get("mfsa.candidates_evaluated", 0),
        "core.positions_evaluated": counts.get("mfs.positions_evaluated", 0),
        "core.local_reschedules": counts.get("mfs.local_reschedules", 0),
        "core.vector_job_frac": sum(
            resolve_kernel("auto", d.n_ops) == "vector" for d in designs
        ) / len(designs),
        "allocation.mux_memo_hit_ratio": ratio("mfsa.mux_cache"),
        "allocation.operand_memo_hit_ratio": ratio("mfsa.operand_cache"),
        "allocation.reg_memo_hit_ratio": ratio("mfsa.reg_cache"),
        "allocation.mux_canon_hit_ratio": ratio("mux.canon"),
    }


def request_path_layers(designs: Sequence[Design], texts: Sequence[str],
                        spans: Spans, min_samples: int = 200) -> Dict[str, float]:
    """p50 per request of each hit-path stage, timed in-process."""
    from repro.io.jsonio import dfg_from_json
    from repro.serve.cache import ResultCache
    from repro.serve.jobs import key_and_fingerprint, normalize_spec

    cache = ResultCache(max_entries=2 * len(designs))
    bodies = [design.body_bytes() for design in designs]
    for design, text in zip(designs, texts):
        key, fingerprint = key_and_fingerprint(
            normalize_spec(design.algorithm, design.body)
        )
        cache.put(key, text, tag=fingerprint)
    clock = time.perf_counter
    for _ in range(-(-min_samples // len(designs))):
        for design, raw in zip(designs, bodies):
            t0 = clock()
            spec = normalize_spec(design.algorithm, json.loads(raw))
            t1 = clock()
            key, fingerprint = key_and_fingerprint(spec)
            t2 = clock()
            text = cache.get(key)
            t3 = clock()
            job = {"id": "j00000-00000000", "status": "done", "cache": "hit",
                   "algorithm": design.algorithm, "key": key,
                   "fingerprint": fingerprint, "queue_seconds": 0.0,
                   "run_seconds": 0.0, "total_seconds": 0.0}
            (json.dumps({"job": job, "result": json.loads(text)},
                        sort_keys=True) + "\n").encode("utf-8")
            t4 = clock()
            dfg_from_json(spec["dfg_json"])
            t5 = clock()
            root = spans.add("layer.request", t0, t4)
            spans.add("jobs.normalize", t0, t1, root)
            spans.add("jobs.key", t1, t2, root)
            spans.add("cache.get", t2, t3, root)
            spans.add("jobs.encode", t3, t4, root)
            spans.add("dfg.decode", t4, t5)
    return {
        "jobs.normalize_ms": stats.p50(spans.durations("jobs.normalize")) * 1e3,
        "jobs.key_ms": stats.p50(spans.durations("jobs.key")) * 1e3,
        "cache.get_ms": stats.p50(spans.durations("cache.get")) * 1e3,
        "jobs.encode_ms": stats.p50(spans.durations("jobs.encode")) * 1e3,
        "dfg.decode_ms": stats.p50(spans.durations("dfg.decode")) * 1e3,
    }
