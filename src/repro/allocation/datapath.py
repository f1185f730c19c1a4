"""The RTL-level datapath structure and its cost roll-up.

A :class:`Datapath` is what MFSA produces (and what MFS + binding can
produce for comparison): a set of ALU instances with bound operations and
optimised input multiplexers, a register file from left-edge allocation,
and the area roll-up matching the paper's Table-2 columns
(``Cost``, ``REG``, ``MUX``, ``MUXin``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import AllocationError
from repro.allocation.lifetimes import Lifetime, value_lifetimes
from repro.allocation.mux import (
    MuxAssignment,
    cached_optimize_mux_inputs,
    node_operand,
)
from repro.allocation.registers import RegisterAllocation, left_edge_allocate
from repro.library.cells import ALUCell, CellLibrary
from repro.schedule.types import Schedule


@dataclass
class ALUInstance:
    """One physical ALU in the datapath."""

    cell: ALUCell
    index: int
    ops: List[str] = field(default_factory=list)
    mux: Optional[MuxAssignment] = None

    @property
    def key(self) -> Tuple[str, int]:
        return (self.cell.name, self.index)

    def label(self) -> str:
        """Paper-style label, e.g. ``(+-)#1``."""
        return f"{self.cell.label()}#{self.index}"


@dataclass(frozen=True)
class CostBreakdown:
    """Area roll-up in µm² (Table-2 ``Cost`` column plus detail)."""

    alu: float
    registers: float
    mux: float

    @property
    def total(self) -> float:
        return self.alu + self.registers + self.mux


class Datapath:
    """Complete allocated datapath for one schedule."""

    def __init__(
        self,
        schedule: Schedule,
        library: CellLibrary,
        binding: Mapping[str, Tuple[str, int]],
        count_inputs: bool = False,
    ) -> None:
        """Build the datapath implied by ``binding``.

        ``binding`` maps node → (cell name, 1-based instance index).  Mux
        assignments are optimised per instance (§5.6) and registers
        allocated by the left-edge rule (§5.8) during construction;
        ``count_inputs`` stores primary inputs in datapath registers too.
        """
        self.schedule = schedule
        self.library = library
        self.binding: Dict[str, Tuple[str, int]] = dict(binding)
        self._check_binding()

        self.instances: Dict[Tuple[str, int], ALUInstance] = {}
        for name, (cell_name, index) in self.binding.items():
            key = (cell_name, index)
            if key not in self.instances:
                self.instances[key] = ALUInstance(
                    cell=library.cell(cell_name), index=index
                )
            self.instances[key].ops.append(name)

        for instance in self.instances.values():
            instance.mux = self._optimize_instance_mux(instance)

        self.lifetimes: Dict[str, Lifetime] = value_lifetimes(
            schedule, count_inputs=count_inputs
        )
        self.registers: RegisterAllocation = left_edge_allocate(
            self.lifetimes.values()
        )

    # ------------------------------------------------------------------
    def _check_binding(self) -> None:
        dfg = self.schedule.dfg
        for name in dfg.node_names():
            if name not in self.binding:
                raise AllocationError(f"node {name!r} is not bound to any ALU")
        for name, (cell_name, index) in self.binding.items():
            cell = self.library.cell(cell_name)
            kind = dfg.node(name).kind
            if not cell.can_execute(kind):
                raise AllocationError(
                    f"node {name!r} ({kind}) bound to incapable cell {cell_name!r}"
                )
            if index < 1:
                raise AllocationError(
                    f"instance index of {name!r} must be >= 1, got {index}"
                )

    def _optimize_instance_mux(self, instance: ALUInstance) -> MuxAssignment:
        dfg = self.schedule.dfg
        ops = self.schedule.timing.ops
        operands = [node_operand(dfg, ops, name) for name in instance.ops]
        return cached_optimize_mux_inputs(operands)

    # ------------------------------------------------------------------
    # Table-2 metrics
    # ------------------------------------------------------------------
    def alu_labels(self) -> List[str]:
        """Paper-style ALU list, e.g. ``['(+-)', '(+-)', '(&=)']``."""
        return [
            instance.cell.label()
            for instance in sorted(
                self.instances.values(), key=lambda i: (i.cell.name, i.index)
            )
        ]

    def register_count(self) -> int:
        """Table-2 ``REG``."""
        return self.registers.count

    def mux_count(self) -> int:
        """Table-2 ``MUX``: ALU input ports needing a real multiplexer."""
        count = 0
        for instance in self.instances.values():
            count += sum(
                1 for inputs in (instance.mux.l1, instance.mux.l2) if len(inputs) >= 2
            )
        return count

    def mux_inputs(self) -> int:
        """Table-2 ``MUXin``: total data inputs across real multiplexers."""
        total = 0
        for instance in self.instances.values():
            for inputs in (instance.mux.l1, instance.mux.l2):
                if len(inputs) >= 2:
                    total += len(inputs)
        return total

    def cost_breakdown(self) -> CostBreakdown:
        """Area roll-up (Table-2 ``Cost``)."""
        alu_area = sum(
            instance.cell.area for instance in self.instances.values()
        )
        register_area = self.registers.count * self.library.register_area
        mux_area = 0.0
        for instance in self.instances.values():
            mux_area += self.library.mux_costs.cost(len(instance.mux.l1))
            mux_area += self.library.mux_costs.cost(len(instance.mux.l2))
        return CostBreakdown(alu=alu_area, registers=register_area, mux=mux_area)

    def instance_of(self, node: str) -> ALUInstance:
        """The ALU instance executing ``node``."""
        return self.instances[self.binding[node]]

    def has_self_loop(self) -> bool:
        """Whether any ALU hosts two data-dependent operations (style-2
        violation check, §4.2)."""
        dfg = self.schedule.dfg
        for instance in self.instances.values():
            members = set(instance.ops)
            for name in instance.ops:
                if members & set(dfg.predecessors(name)):
                    return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Datapath({len(self.instances)} ALUs, "
            f"{self.register_count()} regs, {self.mux_count()} muxes, "
            f"cost={self.cost_breakdown().total:.0f})"
        )
