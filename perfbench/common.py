"""What the three workloads share: run state, load loops, set-up timing.

Load loops record one tuple per request and nothing else while the
clock runs; checking against the reference is a ``bytes.endswith`` per
response.  In a traced run the loop alternates untraced and traced
blocks of ``BLOCK_S`` seconds, so the tracing cost is measured inside
one run as the ratio of mean latencies of the two kinds of block.
"""

from __future__ import annotations

import gc
import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import stats
import wire
from procs import Service
from reference import check_response
from spans import Spans

#: Generator threads and connections (the box has 2 CPUs).
CONNECTIONS = 2

#: Length of the alternating untraced/traced blocks of a traced run.
BLOCK_S = 0.5


@dataclass
class Ctx:
    root: Path
    out: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    spans: Spans = field(default_factory=Spans)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    report: Dict[str, Any] = field(default_factory=dict)

    def check(self, reason: Optional[str], what: str = "") -> None:
        """Count one checked operation; ``reason`` marks it failed."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{what}: {reason}" if what else reason)

    def add_audit(self, audited: int, failures: List[str]) -> None:
        """Count ``audited`` designs of which ``failures`` failed."""
        self.attempted += audited
        self.failed += len(failures)
        self.problems.extend(failures[: max(0, 20 - len(self.problems))])


@dataclass
class Record:
    """One request of a load loop (times are ``perf_counter`` seconds)."""

    due: float
    sent: float
    done: float
    design: int
    failure: Optional[str]
    job: Dict[str, Any]
    traced: bool

    @property
    def latency(self) -> float:
        return self.done - self.due


def traced_block(ctx: Ctx, start: float, now: float) -> bool:
    return ctx.trace and int((now - start) / BLOCK_S) % 2 == 1


def send(port: int, request: bytes, tail: bytes, expect: Optional[str]):
    try:
        status, body = wire.roundtrip(port, request)
    except OSError as error:
        return f"transport: {error}", {}
    return check_response(status, body, tail, expect)


def closed_loop(ctx: Ctx, port: int, requests: Sequence[bytes],
                tails: Sequence[bytes], sequence: Sequence[int],
                expect: Optional[str]) -> List[Record]:
    """``CONNECTIONS`` clients, each sending its next request on a reply."""
    counter = itertools.count()
    clock = time.perf_counter
    start = clock()
    deadline = start + ctx.seconds
    per_thread: List[List[Record]] = [[] for _ in range(CONNECTIONS)]

    def client(records: List[Record]) -> None:
        while True:
            sent = clock()
            if sent >= deadline:
                return
            design = sequence[next(counter) % len(sequence)]
            failure, job = send(port, requests[design], tails[design], expect)
            done = clock()
            traced = traced_block(ctx, start, sent)
            if traced:
                ctx.spans.add("http.request", sent, done)
            records.append(Record(sent, sent, done, design, failure,
                                  job if traced else {}, traced))

    _run_threads(client, per_thread)
    return sorted(itertools.chain(*per_thread), key=lambda r: r.sent)


def open_loop(ctx: Ctx, port: int, requests: Sequence[bytes],
              tails: Sequence[bytes], arrivals, expects) -> List[Record]:
    """Send each arrival at its due time on one of ``CONNECTIONS`` slots.

    Latency runs from the due time, so a stall delays later arrivals
    and shows in their latency; ``sent - due`` is the generator's lag.
    """
    counter = itertools.count()
    clock = time.perf_counter
    start = clock() + 0.05
    per_thread: List[List[Record]] = [[] for _ in range(CONNECTIONS)]

    def client(records: List[Record]) -> None:
        while True:
            index = next(counter)
            if index >= len(arrivals):
                return
            arrival = arrivals[index]
            due = start + arrival.due_s
            wait = due - clock()
            if wait > 0:
                time.sleep(wait)
            sent = clock()
            failure, job = send(port, requests[arrival.design],
                                 tails[arrival.design], expects[index])
            done = clock()
            traced = traced_block(ctx, start, due)
            if traced:
                ctx.spans.add("http.request", due, done)
            records.append(Record(due, sent, done, arrival.design, failure,
                                  job if traced else job_summary(job), traced))

    _run_threads(client, per_thread)
    return sorted(itertools.chain(*per_thread), key=lambda r: r.due)


def job_summary(job: Dict[str, Any]) -> Dict[str, Any]:
    """The fields of a job header an untraced open loop keeps."""
    return {"cache": job.get("cache"), "shard": job.get("shard")}


def _run_threads(target, per_thread: List[List[Record]]) -> None:
    """Run the load threads with this process's garbage collector off.

    A full collection over the benchmark's own inputs pauses the
    generator for tens of milliseconds, which would show as lag and as
    tail latency of the service.  The service processes are untouched.
    """
    threads = [
        threading.Thread(target=target, args=(records,), daemon=True)
        for records in per_thread
    ]
    gc.collect()
    gc.disable()
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        gc.enable()


def load_e2e(ctx: Ctx, outcome: Outcome, records: List[Record],
             slo_ms: float) -> None:
    """Throughput, latency percentiles and SLO share of a load loop."""
    for record in records:
        outcome.check(record.failure, f"design {record.design}")
    latencies = [r.latency for r in records]
    summary = stats.latency_summary(latencies)
    window = max(r.done for r in records) - min(r.due for r in records)
    met = sum(1 for r in records
              if r.failure is None and r.latency * 1e3 <= slo_ms)
    outcome.e2e.update(
        throughput_jobs_per_s=len(records) / window,
        latency_p50_ms=summary["p50_ms"],
        latency_p99_ms=summary["p99_ms"],
        slo_met_frac=met / len(records),
    )
    outcome.report["latency"] = summary
    outcome.report["slo_ms"] = slo_ms


def trace_overhead(latencies: Sequence[float], traced: Sequence[bool]) -> float:
    """Mean latency of traced blocks over untraced blocks, minus one."""
    on = [x for x, flag in zip(latencies, traced) if flag]
    off = [x for x, flag in zip(latencies, traced) if not flag]
    return (sum(on) / len(on)) / (sum(off) / len(off)) - 1.0


def boot_service(ctx: Ctx, outcome: Outcome, args: Sequence[str],
                 warm_request, warm_tail: bytes, repeats: int):
    """Boot the service ``repeats`` times; keep the last one running.

    One set-up sample runs from launch to the first answered job (a
    small paper example, which also makes the service import its
    scheduler).  The median of the samples is ``setup_s``.
    """
    samples: List[float] = []
    service: Optional[Service] = None
    for index in range(repeats):
        if service is not None:
            service.stop()
        service = Service(ctx.root, ctx.out, f"{ctx.workload}-{index}", args)
        start = time.perf_counter()
        try:
            service.start()
            service.wait_ready()
            failure, _job = send(service.port, warm_request(service.port),
                                  warm_tail, None)
        except BaseException:
            service.stop()
            raise
        samples.append(time.perf_counter() - start)
        outcome.check(failure, "warm-up job")
    outcome.e2e["setup_s"] = statistics.median(samples)
    outcome.report["setup_samples_s"] = samples
    return service


def cpu_seconds() -> float:
    """CPU time of this process (all threads)."""
    times = os.times()
    return times.user + times.system
