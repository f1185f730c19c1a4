"""Job specifications and the picklable synthesis worker.

A *job spec* is the plain-dict, process-portable description of one
synthesis request: the design (as canonical ``repro-dfg`` JSON) plus the
full parameter tuple (algorithm, time constraint, ALU style, timing
model, pipelining, seed) and the per-job flags (``verify``, ``trace``).
Specs are what crosses the process boundary into
:class:`~repro.sweep.SweepExecutor` workers, what the result cache is
keyed on, and what the HTTP layer parses requests into — one shape for
all three.

Determinism contract: :func:`execute_spec` runs the exact same scheduler
code path as the one-shot CLI (``repro-hls schedule`` / ``synth
--json``), so a served result is byte-identical to the CLI's JSON output
for the same design and parameters.  Traced runs clear the process-wide
mux-optimiser memo first, mirroring :func:`repro.trace.driver.trace_run`,
so the embedded ``perf.counters`` event — and therefore the whole trace
artifact — is reproducible no matter which worker process picks the job
up.
"""

from __future__ import annotations

import functools
import json
from operator import index
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.fingerprint import (
    dfg_fingerprint,
    library_fingerprint,
    params_fingerprint,
    sha256_of,
)
from repro.dfg.graph import DFG
from repro.dfg.ops import standard_operation_set
from repro.dfg.parser import parse_behavior
from repro.errors import ScheduleError
from repro.io.jsonio import dfg_from_json, dfg_from_obj, dfg_to_json
from repro.perf import PerfCounters
from repro.resilience.faults import fault_point
from repro.sweep import worker_cached

#: Algorithms the service can run.
ALGORITHMS = ("mfs", "mfsa")

#: Spec schema version (part of every cache key).
SPEC_VERSION = 1


class JobSpecError(ValueError):
    """A request that cannot be turned into a valid job spec (HTTP 400)."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def parse_design(body: Mapping[str, Any], name: str = "design") -> DFG:
    """Extract the DFG from a request body.

    Accepts either ``{"source": "<behavioral text>"}`` (the
    :mod:`repro.dfg.parser` language) or ``{"dfg": {...}}`` (a parsed
    ``repro-dfg`` JSON object, as produced by
    :func:`repro.io.jsonio.dfg_to_json`), decoded straight from the
    parsed body.
    """
    source = body.get("source")
    dfg_obj = body.get("dfg")
    _require(
        (source is None) != (dfg_obj is None),
        "request must carry exactly one of 'source' or 'dfg'",
    )
    try:
        if source is not None:
            _require(isinstance(source, str), "'source' must be a string")
            return parse_behavior(source, name=str(body.get("name", name)))
        return dfg_from_obj(dfg_obj)
    except JobSpecError:
        raise
    except Exception as error:
        raise JobSpecError(f"malformed design: {error}") from error


def _integer(body: Mapping[str, Any], key: str, minimum=None) -> Optional[int]:
    """An optional integer field; integral floats and numeric strings pass.

    Booleans and non-integral numbers are rejected rather than coerced
    (``int(2.7)`` would silently truncate, ``int(True)`` is 1).
    """
    value = body.get(key)
    if value is None:
        return None
    try:
        if isinstance(value, bool) or (
            isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        value = int(value) if isinstance(value, (float, str)) else index(value)
    except (TypeError, ValueError):
        raise JobSpecError(f"{key!r} must be an integer") from None
    _require(minimum is None or value >= minimum, f"{key!r} must be >= {minimum}")
    return value


def _clock(body: Mapping[str, Any]) -> Optional[float]:
    """The optional clock period in ns; a zero period is rejected here,
    not left to fail the queued job."""
    value = body.get("clock_ns")
    if value is None:
        return None
    try:
        if isinstance(value, bool):
            raise ValueError
        value = float(value)
    except (TypeError, ValueError):
        raise JobSpecError("'clock_ns' must be a number") from None
    _require(value > 0.0, "'clock_ns' must be > 0")
    return value


def normalize_spec(
    algorithm: str,
    body: Mapping[str, Any],
    verify: bool = False,
    trace: bool = False,
) -> Dict[str, Any]:
    """Validate a request body into a canonical, picklable job spec.

    The canonicalisation matters: two requests describing the same job
    (isomorphic designs, same parameters in any spelling) normalise to
    specs with the same :func:`cache_key`.
    """
    return _canonical_spec(algorithm, body, verify, trace)[0]


def _canonical_spec(
    algorithm: str,
    body: Mapping[str, Any],
    verify: bool,
    trace: bool,
) -> Tuple[Dict[str, Any], DFG]:
    """The job spec of a request body, plus the DFG it was built from."""
    _require(algorithm in ALGORITHMS, f"unknown algorithm {algorithm!r}")
    _require(isinstance(body, Mapping), "request body must be a JSON object")
    dfg = parse_design(body)
    _require(len(dfg) > 0, "design has no operations")
    style = _integer(body, "style")
    _require(style in (None, 1, 2), "'style' must be 1 or 2")
    pipelined = body.get("pipelined", [])
    if isinstance(pipelined, str):
        pipelined = [k for k in pipelined.split(",") if k]
    _require(
        isinstance(pipelined, (list, tuple))
        and all(isinstance(k, str) for k in pipelined),
        "'pipelined' must be a list of kind names",
    )
    spec = {
        "version": SPEC_VERSION,
        "algorithm": algorithm,
        "dfg_json": dfg_to_json(dfg, indent=None),
        "cs": _integer(body, "cs", minimum=1),
        "style": style or 1,
        "mul_latency": _integer(body, "mul_latency", minimum=1) or 1,
        "clock_ns": _clock(body),
        "latency_l": _integer(body, "latency_l", minimum=1),
        "pipelined": sorted(set(pipelined)),
        "seed": _integer(body, "seed") or 0,
        "verify": bool(verify),
        "trace": bool(trace),
    }
    _check_clock(dfg, spec["mul_latency"], spec["clock_ns"])
    return spec, dfg


def _check_clock(dfg: DFG, mul_latency: int, clock_ns: Optional[float]) -> None:
    """Reject a clock period some single-cycle operation of the design
    cannot fit (:meth:`TimingModel.check_kind_fits_clock`'s rule) here,
    not left to fail the queued job."""
    if clock_ns is None:
        return
    timing = TimingModel(
        ops=standard_operation_set(mul_latency=mul_latency),
        clock_period_ns=clock_ns,
    )
    for kind in sorted(k for k in dfg.kinds_used() if k in timing.ops):
        try:
            timing.check_kind_fits_clock(kind)
        except ScheduleError as error:
            raise JobSpecError(f"'clock_ns' too short: {error}") from None


def cache_key(spec: Mapping[str, Any]) -> str:
    """Content address of a job spec (the result-cache key)."""
    return key_and_fingerprint(spec)[0]


def spec_fingerprint(spec: Mapping[str, Any]) -> str:
    """The canonical DFG fingerprint of a spec (the ring routing key)."""
    return dfg_fingerprint(dfg_from_json(spec["dfg_json"]))


def key_and_fingerprint(spec: Mapping[str, Any]) -> Tuple[str, str]:
    """``(cache_key, dfg_fingerprint)`` of a job spec in one DFG parse.

    The cache key combines the canonical DFG fingerprint
    (renaming/insertion-order free), the full parameter tuple, and — for
    allocation jobs — the cell library cost model.  The
    ``verify``/``trace`` flags are part of the key because they change
    the response payload (audit fields, the trace artifact), and cached
    responses are returned byte-identical.  The fingerprint is returned
    alongside because it is the *routing* key: the hash ring places jobs
    and cache entries by it, and every cache write tags the entry with
    it so a ring resize can compute the handoff set.
    """
    return _key(spec, dfg_from_json(spec["dfg_json"]))


@functools.lru_cache(maxsize=None)
def _mfsa_library_digest() -> str:
    """Fingerprint of the MFSA cell library, a constant of the process."""
    from repro.library.ncr import datapath_library

    return library_fingerprint(datapath_library())


def _key(spec: Mapping[str, Any], dfg: DFG) -> Tuple[str, str]:
    """``(cache_key, dfg_fingerprint)`` of a spec and its decoded DFG."""
    params = {
        # The design name is erased by the structural fingerprint but
        # embedded in the response bytes, so it must key the cache.
        "design_name": dfg.name,
    }
    params.update(
        (key, spec[key])
        for key in (
            "version",
            "algorithm",
            "cs",
            "style",
            "mul_latency",
            "clock_ns",
            "latency_l",
            "pipelined",
            "seed",
            "verify",
            "trace",
        )
    )
    library_digest = (
        _mfsa_library_digest() if spec["algorithm"] == "mfsa" else None
    )
    fingerprint = dfg_fingerprint(dfg)
    key = sha256_of(
        [
            "repro-serve-key",
            SPEC_VERSION,
            fingerprint,
            params_fingerprint(params),
            library_digest,
        ]
    )
    return key, fingerprint


def admit_spec(
    algorithm: str,
    body: Mapping[str, Any],
    verify: bool = False,
    trace: bool = False,
) -> Tuple[Dict[str, Any], str, str]:
    """``(spec, cache_key, dfg_fingerprint)`` of one request, in one parse.

    The admission call of both serve roles: the body's design is decoded
    once, and the spec, the cache key and the ring fingerprint all come
    from that one graph.  Equal to :func:`normalize_spec` followed by
    :func:`key_and_fingerprint`, without decoding the spec's
    ``dfg_json`` a second time.
    """
    spec, dfg = _canonical_spec(algorithm, body, verify, trace)
    return (spec, *_key(spec, dfg))


def execute_spec(
    spec: Mapping[str, Any],
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Run one job spec to completion — the sweep worker function.

    Module-level and pure so :class:`~repro.sweep.SweepExecutor` can ship
    it to pool processes.  Returns ``(payload, perf_snapshot)``: the
    response payload (``payload["ok"]`` discriminates success) and the
    :meth:`~repro.perf.PerfCounters.as_dict` snapshot for the caller to
    merge into the service-wide counters.  Job failures are *returned*,
    never raised, so one bad job cannot poison its batch.
    """
    perf = PerfCounters()
    try:
        fault_point("scheduler.run")
        payload = _execute(spec, perf)
    except Exception as error:
        payload = {
            "ok": False,
            "error": {"type": type(error).__name__, "message": str(error)},
        }
    return payload, perf.as_dict()


def _execute(spec: Mapping[str, Any], perf: PerfCounters) -> Dict[str, Any]:
    from repro.core.mfs import MFSScheduler
    from repro.core.mfsa import MFSAScheduler
    from repro.io.jsonio import schedule_to_json, synthesis_to_json
    from repro.library.ncr import datapath_library

    dfg = dfg_from_json(spec["dfg_json"])
    # Warm-worker caches: the timing model and cell library are pure
    # functions of their fingerprinted parameters, so a long-lived pool
    # worker builds each exactly once and reuses it across every job it
    # serves (see repro.sweep.worker_cached).
    timing = worker_cached(
        ("serve.timing", spec["mul_latency"], spec["clock_ns"]),
        lambda: TimingModel(
            ops=standard_operation_set(mul_latency=spec["mul_latency"]),
            clock_period_ns=spec["clock_ns"],
        ),
    )
    cs = spec["cs"] or critical_path_length(dfg, timing)

    trace = None
    if spec["trace"]:
        from repro.allocation.mux import clear_mux_memo
        from repro.trace import TraceRecorder

        # Mirror repro.trace.driver: a cleared process-wide memo makes
        # the counters embedded in the trace worker-independent.
        clear_mux_memo()
        trace = TraceRecorder()

    if spec["algorithm"] == "mfs":
        result = MFSScheduler(
            dfg,
            timing,
            cs=cs,
            mode="time",
            latency_l=spec["latency_l"],
            pipelined_kinds=tuple(spec["pipelined"]),
            perf=perf,
            trace=trace,
        ).run()
        result_obj = json.loads(schedule_to_json(result.schedule))
    else:
        result = MFSAScheduler(
            dfg,
            timing,
            worker_cached(("serve.library",), datapath_library),
            cs=cs,
            style=spec["style"],
            latency_l=spec["latency_l"],
            pipelined_kinds=tuple(spec["pipelined"]),
            perf=perf,
            trace=trace,
        ).run()
        result_obj = json.loads(synthesis_to_json(result))

    payload: Dict[str, Any] = {
        "ok": True,
        "algorithm": spec["algorithm"],
        "design": dfg.name,
        "cs": cs,
        "result": result_obj,
    }
    if spec["verify"]:
        from repro.check import check_mfs_result, check_mfsa_result

        checker = (
            check_mfs_result if spec["algorithm"] == "mfs" else check_mfsa_result
        )
        report = checker(result)
        payload["verified"] = report.ok
        payload["checks_run"] = list(report.checks_run)
        if not report.ok:
            payload["ok"] = False
            payload["violations"] = [str(v) for v in report.violations]
            payload["error"] = {
                "type": "VerificationError",
                "message": f"{len(report.violations)} invariant violation(s)",
            }
    if trace is not None:
        payload["trace_jsonl"] = trace.to_jsonl()
    return payload


def response_text(payload: Mapping[str, Any]) -> str:
    """Canonical serialisation of a job result payload.

    This exact text is what the cache stores and what
    ``GET /v1/jobs/<id>/result`` returns, so the cold and cached paths
    are byte-identical by construction.
    """
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
