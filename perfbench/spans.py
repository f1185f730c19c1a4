"""In-memory span recorder for traced runs.

A span is ``(id, parent, name, start, end)`` with ``perf_counter``
times; spans of one request share its root span as ancestor.  Records
stay in memory during the run and are written out as JSONL at the end,
so tracing costs one tuple append per span while timing is on.  Load
threads share one recorder: id allocation and the append are single
C-level calls, so no lock sits on the timed path.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import List, Tuple

Span = Tuple[int, int, str, float, float]


class Spans:
    def __init__(self) -> None:
        self.records: List[Span] = []
        self._ids = itertools.count(1)

    def add(self, name: str, start: float, end: float, parent: int = 0) -> int:
        span_id = next(self._ids)
        self.records.append((span_id, parent, name, start, end))
        return span_id

    def durations(self, name: str) -> List[float]:
        return [end - start for _id, _parent, n, start, end in self.records if n == name]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.records:
                handle.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name,
                         "start": start, "end": end}
                    )
                    + "\n"
                )
