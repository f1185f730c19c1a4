"""The placement grid — the paper's 2-D/3-D design space (§2.3, Fig. 1).

For every FU type (MFS) or ALU kind (MFSA) there is a 2-D table whose
horizontal coordinate ``x`` is the FU-instance index and whose vertical
coordinate ``y`` is the control step.  Scheduling/allocating an operation
means placing it at a position ``(table, x, y)``.

Occupancy rules implemented here:

* a latency-``k`` operation occupies ``(x, y) … (x, y+k-1)`` (§5.3);
* on a *structurally pipelined* table it occupies only ``(x, y)`` — the
  unit accepts a new operation every step (§5.5.1);
* with functional pipelining of latency ``L``, steps congruent modulo ``L``
  share hardware, so occupancy is recorded on folded steps (§5.5.2);
* *mutually exclusive* operations (§5.1) may share a position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.errors import ScheduleError
from repro.dfg.graph import DFG


@dataclass(frozen=True, order=True)
class GridPosition:
    """One cell of the design space: ``(table, x, y)``.

    ``table`` names the FU type (MFS) or ALU kind (MFSA); ``x`` is the
    1-based instance index, ``y`` the 1-based control step.
    """

    table: str
    x: int
    y: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.table}[{self.x}]@cs{self.y}"


class PlacementGrid:
    """Mutable occupancy state of the full 3-D design space.

    Parameters
    ----------
    dfg:
        The graph being scheduled (needed for mutual-exclusion queries).
    cs:
        Number of control-step rows in every table.
    columns:
        table name → number of FU-instance columns (``max_j``).
    latency_l:
        Functional-pipelining initiation interval; occupancy folds modulo
        ``L`` when set.
    pipelined_tables:
        Tables backed by structurally pipelined FUs (start-step-only
        occupancy).
    """

    def __init__(
        self,
        dfg: DFG,
        cs: int,
        columns: Dict[str, int],
        latency_l: Optional[int] = None,
        pipelined_tables: Iterable[str] = (),
    ) -> None:
        if cs < 1:
            raise ScheduleError(f"grid needs at least one control step, got {cs}")
        self._dfg = dfg
        self.cs = cs
        self._columns = dict(columns)
        self.latency_l = latency_l
        self._pipelined = set(pipelined_tables)
        # (table, x, folded_y) -> occupant node names
        self._occupants: Dict[Tuple[str, int, int], List[str]] = {}
        # node -> (position, occupied folded steps)
        self._placements: Dict[str, Tuple[GridPosition, Tuple[int, ...]]] = {}

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def columns(self, table: str) -> int:
        """Number of instance columns available in ``table``."""
        return self._columns.get(table, 0)

    def widen(self, table: str, columns: int) -> None:
        """Grow ``table`` to at least ``columns`` columns (bound relaxation)."""
        self._columns[table] = max(self._columns.get(table, 0), columns)

    @property
    def pipelined_tables(self) -> FrozenSet[str]:
        """Tables backed by structurally pipelined FUs."""
        return frozenset(self._pipelined)

    def tables(self) -> Tuple[str, ...]:
        """All table names."""
        return tuple(self._columns)

    def fold(self, step: int) -> int:
        """Fold a control step for occupancy under functional pipelining."""
        if self.latency_l:
            return ((step - 1) % self.latency_l) + 1
        return step

    def occupied_steps(self, table: str, start: int, latency: int) -> Tuple[int, ...]:
        """Folded steps an operation at ``start`` occupies in ``table``.

        Deduplicated: with functional pipelining a span longer than ``L``
        wraps onto itself, and recording the same folded step twice would
        leave a ghost occupant behind after :meth:`remove` (which removes
        one list entry per step).  Such spans are rejected by
        :meth:`is_free` anyway; dedup keeps occupancy bookkeeping an
        exact inverse of removal regardless.
        """
        span = 1 if table in self._pipelined else latency
        steps: List[int] = []
        seen = set()
        for i in range(span):
            folded = self.fold(start + i)
            if folded not in seen:
                seen.add(folded)
                steps.append(folded)
        return tuple(steps)

    # ------------------------------------------------------------------
    # occupancy
    # ------------------------------------------------------------------
    def occupants(self, table: str, x: int, step: int) -> Tuple[str, ...]:
        """Nodes occupying ``(table, x, step)`` (after folding)."""
        return tuple(self._occupants.get((table, x, self.fold(step)), ()))

    def is_free(self, node: str, table: str, x: int, y: int, latency: int) -> bool:
        """Whether ``node`` may be placed at ``(table, x, y)``.

        A cell is available if it is empty or every occupant is mutually
        exclusive with ``node`` (§5.1).
        """
        if not 1 <= x <= self.columns(table):
            return False
        if y < 1 or y + latency - 1 > self.cs:
            return False
        span = 1 if table in self._pipelined else latency
        occupants = self._occupants
        fold = self.latency_l
        if fold and span > fold:
            # The folded span wraps onto itself: the operation would need
            # the unit at one folded step for two different phases — a
            # collision with its own next initiation (§5.5.2).
            return False
        for i in range(span):
            step = ((y + i - 1) % fold) + 1 if fold else y + i
            for other in occupants.get((table, x, step), ()):
                if not self._dfg.mutually_exclusive(node, other):
                    return False
        return True

    def place(self, node: str, position: GridPosition, latency: int) -> None:
        """Record ``node`` at ``position``; raises if the cell is taken."""
        if node in self._placements:
            raise ScheduleError(f"node {node!r} is already placed")
        if not self.is_free(node, position.table, position.x, position.y, latency):
            raise ScheduleError(f"position {position} is not free for {node!r}")
        steps = self.occupied_steps(position.table, position.y, latency)
        for folded in steps:
            self._occupants.setdefault(
                (position.table, position.x, folded), []
            ).append(node)
        self._placements[node] = (position, steps)

    def remove(self, node: str) -> None:
        """Undo the placement of ``node``."""
        position, steps = self._placements.pop(node)
        for folded in steps:
            self._occupants[(position.table, position.x, folded)].remove(node)

    def position_of(self, node: str) -> Optional[GridPosition]:
        """Where ``node`` is placed, or ``None``."""
        entry = self._placements.get(node)
        return entry[0] if entry else None

    def placements(self) -> Dict[str, GridPosition]:
        """All placements: node → position."""
        return {node: entry[0] for node, entry in self._placements.items()}

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def used_columns(self, table: str) -> int:
        """Highest occupied column index of ``table`` (0 when empty)."""
        best = 0
        for (tab, x, _y), occupants in self._occupants.items():
            if tab == table and occupants:
                best = max(best, x)
        return best

    def used_instances(self, table: str) -> Set[int]:
        """Set of occupied column indices of ``table``."""
        return {
            x
            for (tab, x, _y), occupants in self._occupants.items()
            if tab == table and occupants
        }

    def occupancy_cells(self, table: str) -> List[Tuple[int, int]]:
        """Occupied ``(x, folded_y)`` cells of ``table``.

        Sparse companion of :meth:`occupancy_matrix`; the vector kernel
        (:mod:`repro.core.kernel`) seeds its boolean occupancy mirror
        from it.
        """
        return [
            (x, y)
            for (tab, x, y), occupants in self._occupants.items()
            if tab == table and occupants
        ]

    def occupancy_matrix(self, table: str) -> List[List[Tuple[str, ...]]]:
        """Dense ``cs × columns`` matrix of occupant tuples (for rendering)."""
        rows = []
        for y in range(1, self.cs + 1):
            rows.append(
                [
                    self.occupants(table, x, y)
                    for x in range(1, self.columns(table) + 1)
                ]
            )
        return rows
