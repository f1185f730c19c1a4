"""The synth_cold counter set and its drift report.

The scheduler's perf counters are exact: the same designs compiled in
the same order from a fresh process give the same counts, whatever the
machine's load.  A count that changes while outputs stay identical is a
change in how much work the program does — the kind of drift
(``mfsa.operand_cache_hits`` 388 -> 107) that went unnoticed before.
The report is in counts and never in speed.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

#: Counter-name prefixes recorded (scheduler core and allocation memos).
PREFIXES = ("mfs.", "mfsa.", "mux.")


def counter_set(snapshots: Iterable[Mapping]) -> Dict[str, int]:
    """Sum of the recorded counters over per-job perf snapshots."""
    total: Dict[str, int] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            if name.startswith(PREFIXES):
                total[name] = total.get(name, 0) + int(value)
    return dict(sorted(total.items()))


def diff(
    recorded: Mapping[str, int], observed: Mapping[str, int]
) -> List[Tuple[str, int, int]]:
    """``(name, recorded, observed)`` for every counter that differs."""
    return [
        (name, recorded.get(name, 0), observed.get(name, 0))
        for name in sorted(set(recorded) | set(observed))
        if recorded.get(name, 0) != observed.get(name, 0)
    ]


def render_diff(rows: List[Tuple[str, int, int]], source: str) -> str:
    if not rows:
        return f"counter drift vs {source}: none"
    lines = [f"counter drift vs {source}: {len(rows)} counter(s) differ"]
    for name, before, after in rows:
        lines.append(f"  {name:<34} {before:>10} -> {after:<10} ({after - before:+d})")
    return "\n".join(lines)


def load(path: Path) -> Dict[str, Dict[str, int]]:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def drift_report(
    seed: int,
    observed: Mapping[str, int],
    baseline_path: Path,
    last_run_path: Path,
) -> Tuple[Optional[str], List[Tuple[str, int, int]]]:
    """Compare with the committed baseline for ``seed``, else the last run.

    Records ``observed`` as the new last run.  Returns the source
    compared against (``None`` when there was nothing to compare) and
    the differing counters.
    """
    key = str(seed)
    source: Optional[str] = None
    recorded = load(baseline_path).get(key)
    if recorded is not None:
        source = f"baseline {baseline_path.name}"
    else:
        recorded = load(last_run_path).get(key)
        if recorded is not None:
            source = "last run in this checkout"
    history = load(last_run_path)
    history[key] = dict(observed)
    last_run_path.parent.mkdir(parents=True, exist_ok=True)
    last_run_path.write_text(json.dumps(history, indent=1, sort_keys=True))
    if recorded is None:
        return None, []
    return source, diff(recorded, observed)
