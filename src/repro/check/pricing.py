"""MFSA pricing oracle: re-price every recorded move from its definition.

MFSA prices candidates through exact memo tables — the per-node operand
cache, the per-instance mux memo, the renaming-canonical prefixes and the
process-wide optimiser memo of :mod:`repro.allocation.mux`, the per-step
f_REG cache and, on the vector kernel, batched register counts.  This
audit holds a finished run to the §4.1 definition instead.  It replays
the trajectory in commit order, rebuilding instance membership and the
committed input lifetimes, and re-derives each recorded energy with none
of those tables:

* ``f_ALU`` — the cell's area, unless the instance already hosts an
  operation;
* ``f_MUX`` — the optimised mux cost of the instance's member operands
  with the candidate minus without it, each from a direct
  :func:`~repro.allocation.mux.optimize_mux_inputs` call;
* ``f_REG`` — the new registers the candidate's input lifetimes need in a
  fresh :class:`~repro.allocation.registers.IncrementalRegisterEstimator`
  holding every committed input lifetime.

Every recorded alternative must carry exactly its re-priced energy; when
the run did not record alternatives, the committed position is checked
instead.  The check runs under ``repro check`` (``differential=True``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.allocation.mux import MuxOperand, node_operand, optimize_mux_inputs
from repro.allocation.registers import IncrementalRegisterEstimator
from repro.check.report import Violation
from repro.core.liapunov import MFSALiapunov
from repro.core.mfsa import input_lifetimes


def check_mfsa_pricing(result) -> List[Violation]:
    """Re-price every recorded move of one :class:`MFSAResult` from scratch."""
    schedule = result.schedule
    dfg, timing = schedule.dfg, schedule.timing
    library = result.datapath.library
    liapunov = MFSALiapunov(library, result.weights)
    costs = library.mux_costs
    pipelined = frozenset(schedule.pipelined_kinds)
    members: Dict[Tuple[str, int], List[MuxOperand]] = {}
    registers = IncrementalRegisterEstimator()
    placed_ends: Dict[str, int] = {}

    def mux_cost(operands: List[MuxOperand]) -> float:
        if not operands:
            return 0.0
        assignment = optimize_mux_inputs(operands)
        return costs.cost(len(assignment.l1)) + costs.cost(len(assignment.l2))

    def price(node: str, operand: MuxOperand, position) -> float:
        hosted = members.get((position.table, position.x), [])
        f_alu = 0.0 if hosted else library.cell(position.table).area
        f_mux = mux_cost(hosted + [operand]) - mux_cost(hosted)
        lifetimes = input_lifetimes(
            dfg, timing, node, position.y, placed_ends, pipelined
        )
        f_reg = registers.cost_of(lifetimes) * library.register_area
        return liapunov.value(position.y, f_alu, f_mux, f_reg)

    violations: List[Violation] = []
    for event in result.trajectory:
        node, chosen = event.node, event.position
        operand = node_operand(dfg, timing.ops, node)
        recorded = event.alternatives or ((chosen, event.energy),)
        for position, energy in recorded:
            expected = price(node, operand, position)
            if energy != expected:
                violations.append(
                    Violation(
                        "pricing.energy-mismatch",
                        node,
                        f"iteration {event.iteration}: {position} was "
                        f"priced {energy}, but re-pricing from scratch "
                        f"gives {expected}",
                    )
                )
        members.setdefault((chosen.table, chosen.x), []).append(operand)
        registers.commit(
            input_lifetimes(dfg, timing, node, chosen.y, placed_ends, pipelined)
        )
        placed_ends[node] = chosen.y + timing.latency(dfg.node(node).kind) - 1
    return violations
