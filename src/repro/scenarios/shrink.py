"""Delta-debugging reducer: failing scenario → minimal DFG reproducer.

A failing matrix cell on a 200-op random graph is a terrible bug
report.  :func:`shrink_dfg` reduces any DFG against a *failing*
predicate with three greedy passes run to a fixpoint:

A. **drop cones** — remove a node together with its transitive
   successors (successor-closed removal keeps every remaining operand
   defined, so candidates are always structurally valid);
B. **rewire to inputs** — replace a node operand that reads another
   node with a primary input, flattening depth so pass A can bite again;
C. **trim the interface** — drop unused primary inputs and surplus
   outputs.

Each candidate is accepted only if the predicate still fails on it, so
the result provably reproduces the original failure; a predicate that
*raises* on a candidate counts as "does not reproduce" (the reduction
must never trade one failure for a different one).

:func:`shrink_scenario` wires this to the matrix runner: the predicate
is "re-run this scenario's scheduler + audit + synthetic defect on the
candidate graph and see it fail".  Reduced graphs are persisted as
corpus files (:func:`save_reproducer` / :func:`load_reproducer`) that
CI uploads next to the pass/fail grid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dfg.fingerprint import dfg_fingerprint
from repro.dfg.graph import DFG, Port
from repro.io.jsonio import dfg_from_obj, dfg_to_json

#: Corpus file format marker/version.
REPRODUCER_FORMAT = "repro-scenario-reproducer"
REPRODUCER_VERSION = 1


@dataclass(frozen=True)
class ShrinkResult:
    """Outcome of one reduction run."""

    dfg: DFG
    original_ops: int
    original_fingerprint: str
    rounds: int
    scenario: Optional[Dict[str, Any]] = None
    violations: Tuple[str, ...] = ()

    @property
    def n_ops(self) -> int:
        return len(self.dfg)

    @property
    def fingerprint(self) -> str:
        return dfg_fingerprint(self.dfg)


# ---------------------------------------------------------------------------
# Structure-preserving graph surgery
# ---------------------------------------------------------------------------
def _rebuild(
    dfg: DFG,
    keep: Sequence[str],
    operand_overrides: Optional[Mapping[Tuple[str, int], Port]] = None,
) -> DFG:
    """Copy ``dfg`` keeping only ``keep`` nodes (insertion order).

    ``keep`` must be predecessor-closed modulo ``operand_overrides``
    (every surviving operand either survives too or is overridden).
    Outputs referencing dropped nodes are discarded; a graph left with
    no outputs exposes its first sink as ``out0`` so every candidate
    stays a schedulable design.
    """
    overrides = dict(operand_overrides or {})
    keep_set = set(keep)
    reduced = DFG(dfg.name)
    for name in dfg.inputs:
        reduced.add_input(name)
    for node in dfg:
        if node.name not in keep_set:
            continue
        operands = [
            overrides.get((node.name, index), port)
            for index, port in enumerate(node.operands)
        ]
        reduced.add_op(
            node.kind, operands, name=node.name, branch=node.branch
        )
    for out_name, port in dfg.outputs.items():
        if not port.is_node or port.name in keep_set:
            reduced.set_output(out_name, port)
    if not reduced.outputs and len(reduced):
        reduced.set_output("out0", Port.node(reduced.sink_nodes()[0]))
    return reduced


def _drop_unused_interface(dfg: DFG) -> DFG:
    """Remove unread primary inputs and keep a single primary output."""
    used = set()
    for node in dfg:
        for port in node.operands:
            if port.is_input:
                used.add(port.name)
    reduced = DFG(dfg.name)
    for name in dfg.inputs:
        if name in used:
            reduced.add_input(name)
    for node in dfg:
        reduced.add_op(
            node.kind, node.operands, name=node.name, branch=node.branch
        )
    valid_outputs = [
        (out_name, port)
        for out_name, port in dfg.outputs.items()
        if port.is_const
        or (port.is_node and port.name in dfg)
        or (port.is_input and port.name in used)
    ]
    for out_name, port in valid_outputs[:1]:
        reduced.set_output(out_name, port)
    if not reduced.outputs and len(reduced):
        reduced.set_output("out0", Port.node(reduced.sink_nodes()[0]))
    return reduced


def _still_fails(failing: Callable[[DFG], bool], candidate: DFG) -> bool:
    if len(candidate) == 0:
        return False
    try:
        return bool(failing(candidate))
    except Exception:
        # A candidate that makes the *predicate* blow up is a different
        # failure — never accept it as a reduction step.
        return False


def shrink_dfg(
    dfg: DFG,
    failing: Callable[[DFG], bool],
    max_rounds: int = 32,
) -> ShrinkResult:
    """Greedily reduce ``dfg`` while ``failing`` keeps returning True.

    ``failing(dfg)`` must be True on entry (nothing to reproduce
    otherwise — raises ``ValueError``).  Deterministic: candidates are
    tried in a fixed order, so the same (graph, predicate) always
    shrinks to the same reproducer.
    """
    if not _still_fails(failing, dfg):
        raise ValueError("shrink_dfg needs a DFG on which `failing` is True")
    original_ops = len(dfg)
    original_fingerprint = dfg_fingerprint(dfg)

    current = dfg
    rounds = 0
    changed = True
    while changed and rounds < max_rounds:
        changed = False
        rounds += 1

        # Pass A: drop whole cones, latest nodes first (a late node's
        # cone is small, so this peels sinks before attacking the core).
        for name in reversed(current.node_names()):
            if name not in current:  # pragma: no cover - defensive
                continue
            drop = {name} | current.transitive_successors(name)
            if len(drop) >= len(current):
                continue
            keep = [n for n in current.node_names() if n not in drop]
            candidate = _rebuild(current, keep)
            if _still_fails(failing, candidate):
                current = candidate
                changed = True

        # Pass B: cut depth by rewiring node-reading operands to the
        # first primary input; unlocks more pass-A cone drops.
        anchor = (
            Port.input(current.inputs[0]) if current.inputs else Port.const(1)
        )
        for name in current.node_names():
            node = current.node(name)
            for index, port in enumerate(node.operands):
                if not port.is_node:
                    continue
                candidate = _rebuild(
                    current,
                    current.node_names(),
                    operand_overrides={(name, index): anchor},
                )
                if _still_fails(failing, candidate):
                    current = candidate
                    changed = True

        # Pass C: shed interface baggage.
        candidate = _drop_unused_interface(current)
        if (
            len(candidate.inputs) < len(current.inputs)
            or len(candidate.outputs) < len(current.outputs)
        ) and _still_fails(failing, candidate):
            current = candidate
            changed = True

    return ShrinkResult(
        dfg=current,
        original_ops=original_ops,
        original_fingerprint=original_fingerprint,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Scenario-level entry point
# ---------------------------------------------------------------------------
def _scenario_violations(
    scenario: Mapping[str, Any], dfg: DFG
) -> List[str]:
    from repro.scenarios.matrix import run_scenario

    return list(run_scenario(scenario, dfg=dfg)["violations"])


def shrink_scenario(
    scenario: Mapping[str, Any],
    dfg: Optional[DFG] = None,
    max_rounds: int = 32,
) -> ShrinkResult:
    """Shrink one failing matrix scenario to a minimal reproducer.

    Re-generates the scenario's DFG (unless ``dfg`` is given), then
    reduces it under the predicate "this scenario's scheduler + audit +
    synthetic defect still reports violations on the candidate".
    """
    from repro.scenarios.generator import generate_dfg, parse_generator_spec

    if dfg is None:
        spec = parse_generator_spec(scenario["generator"])
        dfg = generate_dfg(spec, scenario["seed"])

    def failing(candidate: DFG) -> bool:
        return bool(_scenario_violations(scenario, candidate))

    result = shrink_dfg(dfg, failing, max_rounds=max_rounds)
    return ShrinkResult(
        dfg=result.dfg,
        original_ops=result.original_ops,
        original_fingerprint=result.original_fingerprint,
        rounds=result.rounds,
        scenario=dict(scenario),
        violations=tuple(_scenario_violations(scenario, result.dfg)),
    )


# ---------------------------------------------------------------------------
# Corpus files
# ---------------------------------------------------------------------------
def save_reproducer(result: ShrinkResult, path: str) -> Dict[str, Any]:
    """Persist a shrunk reproducer as a corpus JSON file."""
    payload = {
        "format": REPRODUCER_FORMAT,
        "version": REPRODUCER_VERSION,
        "scenario": result.scenario,
        "original": {
            "n_ops": result.original_ops,
            "fingerprint": result.original_fingerprint,
        },
        "reduced": {
            "n_ops": result.n_ops,
            "fingerprint": result.fingerprint,
            "rounds": result.rounds,
            "violations": list(result.violations),
        },
        "dfg": json.loads(dfg_to_json(result.dfg)),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_reproducer(path: str) -> Tuple[Optional[Dict[str, Any]], DFG]:
    """Load a corpus file back into ``(scenario, dfg)``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if payload.get("format") != REPRODUCER_FORMAT:
        raise ValueError(f"{path} is not a {REPRODUCER_FORMAT} file")
    dfg = dfg_from_obj(payload["dfg"])
    return payload.get("scenario"), dfg
