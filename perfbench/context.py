"""The run stamp printed with every result: machine, versions, source.

The checkout the benchmark runs in need not be a git repository, so the
source identity is the commit named by ``.git/HEAD`` when it exists and,
always, a digest of every file under ``src/`` — two checkouts with the
same digest run the same program.
"""

from __future__ import annotations

import hashlib
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional


def _git_sha(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
    except OSError:
        return None
    if text.startswith("ref: "):
        try:
            return (root / ".git" / text[5:]).read_text().strip()
        except OSError:
            return None
    return text


def source_digest(root: Path) -> str:
    """sha256 over the relative paths and bytes of every ``src/**/*.py``."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(x) for x in handle.readline().split()[1:]]


def steal_frac(start: List[int], end: List[int]) -> float:
    """Share of CPU time the hypervisor took away between two readings.

    On a shared virtual machine this is the usual reason two runs of
    the same code disagree; it is stamped on every result.
    """
    delta = [b - a for a, b in zip(start, end)]
    total = sum(delta)
    return delta[7] / total if total and len(delta) > 7 else 0.0


def host_ref_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: this host's speed right now.

    Taken at the start and end of every run, so a result that moved can
    be told apart from a host that slowed down.
    """
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        samples.append(time.perf_counter() - start)
    return sorted(samples)[repeats // 2] * 1e3


def run_context(root: Path) -> Dict[str, object]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(root),
        "src_digest": source_digest(root),
        "loadavg_1m": os.getloadavg()[0],
        "host_ref_ms_start": host_ref_ms(),
    }
