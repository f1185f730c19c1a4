"""Reading counters from the service's Prometheus ``/metrics`` text."""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

import wire

Sample = Tuple[str, FrozenSet[Tuple[str, str]]]


def parse(text: str) -> Dict[Sample, float]:
    samples: Dict[Sample, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        series, _sep, value = line.rpartition(" ")
        name, _brace, rest = series.partition("{")
        labels = []
        for part in rest.rstrip("}").split('",'):
            key, eq, val = part.partition("=")
            if eq:
                labels.append((key.strip(), val.strip().strip('"')))
        samples[(name, frozenset(labels))] = float(value)
    return samples


def scrape(port: int) -> Dict[Sample, float]:
    status, body = wire.get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return parse(body.decode("utf-8"))


def total(samples: Dict[Sample, float], name: str, **match: str) -> float:
    """Sum of ``name`` over every series whose labels include ``match``."""
    wanted = set(match.items())
    return sum(
        value
        for (sample, labels), value in samples.items()
        if sample == name and wanted <= labels
    )


def delta(before, after, name: str, **match: str) -> float:
    return total(after, name, **match) - total(before, name, **match)
