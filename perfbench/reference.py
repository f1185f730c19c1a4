"""The reference check: a served result must equal a one-shot run.

The service answers ``{"job": {...}, "result": <payload>}`` encoded with
``json.dumps(sort_keys=True)``, so the bytes after the job object are a
pure function of the result payload.  The reference is computed once,
in-process, through :func:`repro.serve.jobs.execute_spec` — the code
path of ``repro-hls synth/schedule --json`` — and each response is then
checked with one ``endswith`` plus a parse of the small job header.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Mapping, Optional, Tuple


def reference_text(payload: Mapping[str, Any]) -> str:
    """The canonical text the service caches for ``payload``."""
    from repro.serve.jobs import response_text

    return response_text(payload)


def expected_tail(reference: str) -> bytes:
    """The bytes every correct response for this job ends with."""
    result = json.loads(reference)
    return (
        b'"result": '
        + json.dumps(result, sort_keys=True).encode("utf-8")
        + b"}\n"
    )


def check_response(
    status: int,
    body: bytes,
    tail: bytes,
    expect_cache: Optional[str] = None,
) -> Tuple[Optional[str], Dict[str, Any]]:
    """``(failure reason or None, job header)`` of one served response."""
    if status != 200:
        return f"HTTP {status}: {body[:200]!r}", {}
    if not body.endswith(tail):
        return "result differs from the one-shot reference", {}
    head = body[: len(body) - len(tail)].rstrip()
    if not head.endswith(b","):
        return "unexpected response layout", {}
    try:
        job = json.loads(head[:-1] + b"}")["job"]
    except (ValueError, KeyError, TypeError):
        return "unparseable job header", {}
    if job.get("status") != "done":
        return f"job status {job.get('status')!r}", job
    if expect_cache is not None and job.get("cache") != expect_cache:
        return f"expected cache {expect_cache}, got {job.get('cache')!r}", job
    return None, job
