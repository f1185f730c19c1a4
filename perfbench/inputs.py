"""Seeded workload inputs: every design is a pure function of (workload, seed).

Designs come from two sources: the paper's six examples
(:data:`repro.bench.suites.EXAMPLES`) and ``repro.scenarios`` generator
spec strings.  The seed picks the generator seeds, never the sizes, so
every seed of a workload compiles the same multiset of sizes and the
per-seed spread stays small.

A design is carried as the HTTP request body the service accepts
(``{"dfg": ..., "cs": ..., "mul_latency": ..., "clock_ns": ...}``), so
the in-process path (:func:`repro.serve.jobs.normalize_spec`) and the
served path see the same bytes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

#: Generator templates and sizes per workload.  ``{n}`` is the size knob
#: (op count for ``random``, layer count for ``layered`` at width 4).
#: synth_cold straddles the vector-kernel threshold (VECTOR_MIN_OPS=48)
#: and is weighted towards small designs, as real compile queues are.
SYNTH_COLD_MIX: Tuple[Tuple[str, Tuple[int, ...], str], ...] = (
    ("random:ops={n}:inputs=4", (8, 10, 12, 14, 16, 18, 20, 24, 28, 32, 40), "mfsa"),
    ("random:ops={n}:inputs=6:cond=2", (12, 20, 28, 36), "mfsa"),
    ("random:ops={n}:inputs=4:mul_latency=2", (12, 24, 32, 48), "mfsa"),
    ("random:ops={n}:inputs=4:mix=add+sub+and+or+lt:clock=20", (10, 16, 24), "mfsa"),
    ("layered:layers={n}:width=4:inputs=6", (4, 8, 14), "mfsa"),
    ("random:ops={n}:inputs=8", (56, 64, 80), "mfsa"),
    ("random:ops={n}:inputs=4", (8, 12, 16, 24, 32, 48), "mfs"),
    ("random:ops={n}:inputs=6:cond=2", (16, 64), "mfs"),
)
#: synth_cold's large designs are the same for every seed.  They take
#: most of a round's time and set its p99, so drawing them per seed
#: would let one seed's graph structure, not the program, move
#: throughput and p99 by a fifth between runs.
SYNTH_COLD_FIXED: Tuple[Tuple[str, Tuple[int, ...], str], ...] = (
    ("random:ops={n}:inputs=8", (100, 150, 300), "mfsa"),
    ("random:ops={n}:inputs=4", (96, 200), "mfs"),
)

#: serve_hit's working set: 8-100-op designs, well under the default
#: ``cache_entries`` (1024), three quarters /v1/synth.
SERVE_HIT_MIX: Tuple[Tuple[str, Tuple[int, ...], str], ...] = (
    ("random:ops={n}:inputs=4", (8, 12, 16, 20, 24, 32, 40, 48, 64, 80, 100), "mfsa"),
    ("random:ops={n}:inputs=6:cond=2", (12, 24, 36, 48), "mfsa"),
    ("random:ops={n}:inputs=4:mul_latency=2", (16, 32, 56), "mfsa"),
    ("layered:layers={n}:width=4:inputs=6", (3, 6, 12), "mfsa"),
    ("random:ops={n}:inputs=4", (8, 16, 24, 32, 48, 64, 100), "mfs"),
)

#: fleet_mix's fresh designs (each one a miss), cycled in order.
FLEET_FRESH_MIX: Tuple[Tuple[str, Tuple[int, ...], str], ...] = (
    ("random:ops={n}:inputs=4", (8, 12, 16, 20, 24, 32), "mfsa"),
    ("random:ops={n}:inputs=6:cond=2", (12, 24), "mfsa"),
    ("random:ops={n}:inputs=4", (8, 16, 24, 40), "mfs"),
)
#: Every ``FLEET_HEAVY_EVERY``-th fresh design is a 100-op MFSA job.
#: About 2% of arrivals are then slow by construction, twice the 1%
#: above p99, so p99 lands near the median of these jobs: the tail is
#: set by the program's own slow jobs, not by the few worst stalls of a
#: shared host.  The heavy jobs cycle through ``FLEET_HEAVY_SHAPES``
#: graphs that are the same for every seed, each sent under a new name
#: (a new cache key, so still a miss): drawn per seed, their compile
#: times spread p99 as much as the host does.
FLEET_HEAVY = ("random:ops={n}:inputs=8", 100, "mfsa")
FLEET_HEAVY_EVERY = 35
FLEET_HEAVY_SHAPES = 4


@dataclass(frozen=True)
class Design:
    """One job: algorithm, request body, and a human-readable label."""

    algorithm: str
    body: Dict
    label: str
    n_ops: int

    @property
    def path(self) -> str:
        return "/v1/synth" if self.algorithm == "mfsa" else "/v1/schedule"

    def body_bytes(self) -> bytes:
        return json.dumps(self.body, sort_keys=True).encode("utf-8")

    def request_bytes(self, port: int, query: str = "wait=1") -> bytes:
        """The complete HTTP/1.1 request, encoded once before timing."""
        body = self.body_bytes()
        head = (
            f"POST {self.path}?{query} HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        return head.encode("latin-1") + body


def rng_for(workload: str, seed: int, stream: str = "") -> random.Random:
    """The benchmark's RNG for one stream of one (workload, seed)."""
    return random.Random(f"perfbench:{workload}:{int(seed)}:{stream}")


def _generated(template: str, n: int, gen_seed: int, name: str,
               algorithm: str) -> Design:
    from repro.io.jsonio import dfg_to_json
    from repro.scenarios.generator import generate_dfg, parse_generator_spec

    spec = parse_generator_spec(template.format(n=n))
    dfg = generate_dfg(spec, gen_seed, name=name)
    body: Dict = {"dfg": json.loads(dfg_to_json(dfg, indent=None))}
    if spec.mul_latency != 1:
        body["mul_latency"] = spec.mul_latency
    if spec.clock_ns is not None:
        body["clock_ns"] = spec.clock_ns
    return Design(algorithm, body, f"{spec.to_string()}#{gen_seed}", len(dfg))


def paper_examples() -> List[Design]:
    """The paper's six examples at their Table-2 MFSA parameters."""
    from repro.bench.suites import EXAMPLES
    from repro.io.jsonio import dfg_to_json

    designs = []
    for key in sorted(EXAMPLES):
        example = EXAMPLES[key]
        dfg = example.build()
        body: Dict = {
            "dfg": json.loads(dfg_to_json(dfg, indent=None)),
            "cs": example.mfsa_cs,
            "mul_latency": example.mfsa_mul_latency,
        }
        if example.mfsa_clock_ns is not None:
            body["clock_ns"] = example.mfsa_clock_ns
        designs.append(Design("mfsa", body, f"paper:{key}", len(dfg)))
    return designs


def from_mix(
    mix: Sequence[Tuple[str, Tuple[int, ...], str]],
    rng: random.Random,
    prefix: str,
) -> List[Design]:
    """One design per (template, size) of ``mix``, generator seeds from ``rng``."""
    designs = []
    for template, sizes, algorithm in mix:
        for n in sizes:
            index = len(designs)
            designs.append(
                _generated(
                    template, n, rng.randrange(1 << 30),
                    f"{prefix}{index}", algorithm,
                )
            )
    return designs


def synth_cold_designs(seed: int) -> List[Design]:
    """The synth_cold set: paper examples, fixed large designs, seeded mix."""
    designs = (
        paper_examples()
        + from_mix(SYNTH_COLD_FIXED, rng_for("synth_cold", 0, "fixed"), "sf")
        + from_mix(SYNTH_COLD_MIX, rng_for("synth_cold", seed), "sc")
    )
    rng_for("synth_cold", seed, "order").shuffle(designs)
    return designs


def serve_hit_designs(seed: int) -> List[Design]:
    return from_mix(SERVE_HIT_MIX, rng_for("serve_hit", seed), "sh")


def serve_hit_sequence(seed: int, n_designs: int, length: int = 8192) -> List[int]:
    """The order in which the closed loop resubmits the warm set."""
    rng = rng_for("serve_hit", seed, "sequence")
    return [rng.randrange(n_designs) for _ in range(length)]


@dataclass(frozen=True)
class Arrival:
    """One open-loop arrival: due offset (s) and the design index sent."""

    due_s: float
    design: int
    fresh: bool


def fleet_plan(
    seed: int,
    seconds: float,
    rate: float,
    fresh_frac: float,
    warm: int,
    min_gap: int,
) -> Tuple[List[Design], List[Arrival]]:
    """fleet_mix designs and arrival schedule.

    Designs ``[0, warm)`` are submitted during set-up.  Each arrival is,
    in a seeded ratio, a fresh design (a miss) or a resubmission of a
    design that was first sent at least ``min_gap`` arrivals earlier, so
    its result is in the router's L2 by the time it comes back.
    """
    rng = rng_for("fleet_mix", seed, "arrivals")
    design_rng = rng_for("fleet_mix", seed, "designs")
    heavy_rng = rng_for("fleet_mix", 0, "heavy")
    heavy_seeds = [heavy_rng.randrange(1 << 30) for _ in range(FLEET_HEAVY_SHAPES)]
    designs: List[Design] = []

    def fresh_design() -> int:
        count = len(designs)
        if count % FLEET_HEAVY_EVERY == FLEET_HEAVY_EVERY - 1:
            template, n, algorithm = FLEET_HEAVY
            gen_seed = heavy_seeds[(count // FLEET_HEAVY_EVERY) % FLEET_HEAVY_SHAPES]
        else:
            template, sizes, algorithm = FLEET_FRESH_MIX[
                count % len(FLEET_FRESH_MIX)
            ]
            n = sizes[(count // len(FLEET_FRESH_MIX)) % len(sizes)]
            gen_seed = design_rng.randrange(1 << 30)
        designs.append(
            _generated(template, n, gen_seed, f"fm{count}", algorithm))
        return count

    for _ in range(warm):
        fresh_design()
    arrivals: List[Arrival] = []
    first_sent: List[int] = []  # arrival index at which design i was first sent
    ready = warm  # designs [0, ready) may be resubmitted
    for index in range(int(round(seconds * rate))):
        while (ready - warm < len(first_sent)
               and first_sent[ready - warm] <= index - min_gap):
            ready += 1
        if rng.random() < fresh_frac:
            design = fresh_design()
            first_sent.append(index)
            arrivals.append(Arrival(index / rate, design, True))
        else:
            arrivals.append(Arrival(index / rate, rng.randrange(ready), False))
    return designs, arrivals


def input_vectors(dfg_inputs: Sequence[str], rng: random.Random,
                  count: int) -> List[Dict[str, int]]:
    """Seeded integer input vectors for datapath simulation."""
    return [
        {name: rng.randint(-64, 64) for name in dfg_inputs}
        for _ in range(count)
    ]
