"""Move Frame Scheduling-Allocation — MFSA (§4).

MFSA keeps MFS's tables, frames and movement mechanism but

* one table exists per *ALU cell* of the user's library (an addition may
  go to ``(+)``, ``(+-)``, ``(+>)``, … — §4.1), and
* the Liapunov function is *dynamic*:

      ``V = Σ (f_TIME + f_ALU + f_MUX + f_REG)``

  where ``f_ALU`` is the cost of opening a new ALU instance (zero when
  reusing one), ``f_MUX`` the incremental multiplexer cost under best
  input-signal sharing (§5.6), and ``f_REG`` the incremental register cost
  from the candidate's input-signal life spans (§5.8).  ``f_TIME = C·y``
  dominates so control steps are never wasted.

Two design styles (§4.2): style 1 is unrestricted; style 2 forbids
self-loops around ALUs (an operation may not share an instance with its
DFG predecessors or successors — the SYNTEST self-testable style).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.recorder import TraceRecorder

from repro.errors import InfeasibleScheduleError, ScheduleError
from repro.dfg.analysis import TimingModel
from repro.dfg.graph import DFG
from repro.library.cells import ALUCell, CellLibrary
from repro.schedule.types import Schedule
from repro.allocation.datapath import CostBreakdown, Datapath
from repro.allocation.lifetimes import Lifetime
from repro.allocation.mux import (
    MuxOperand,
    _canonical_form,
    cached_mux_sizes_for_key,
    node_operand,
)
from repro.allocation.registers import IncrementalRegisterEstimator
from repro.core import kernel as _kernel
from repro.core.engine import MoveFrameScheduler
from repro.core.grid import GridPosition, PlacementGrid
from repro.core.liapunov import LiapunovWeights, MFSALiapunov
from repro.core.stability import Trajectory
from repro.perf import PerfCounters


@dataclass
class MFSAResult:
    """Schedule + RTL structure + audit trail of one MFSA run."""

    schedule: Schedule
    datapath: Datapath
    placements: Dict[str, GridPosition]
    trajectory: Trajectory
    grid: PlacementGrid
    style: int
    weights: LiapunovWeights = LiapunovWeights()

    @property
    def cost(self) -> CostBreakdown:
        """Area roll-up (Table-2 ``Cost``)."""
        return self.datapath.cost_breakdown()

    def alu_labels(self) -> List[str]:
        """Paper-style ALU list (Table-2 ``ALU's`` column)."""
        return self.datapath.alu_labels()


def input_lifetimes(
    dfg: DFG,
    timing: TimingModel,
    name: str,
    y: int,
    placed_ends: Mapping[str, int],
    pipelined_kinds: frozenset = frozenset(),
) -> List[Lifetime]:
    """Life spans starting ``name`` at step ``y`` gives its inputs (§5.8).

    A non-pipelined multi-cycle consumer holds its operands until its end
    step (see :mod:`repro.allocation.lifetimes`).
    """
    node = dfg.node(name)
    latency = timing.latency(node.kind)
    death = y
    if latency > 1 and node.kind not in pipelined_kinds:
        death = y + latency - 1
    lifetimes: List[Lifetime] = []
    seen = set()
    for port in node.operands:
        if not port.is_node or port.name in seen:
            continue
        seen.add(port.name)
        birth = placed_ends[port.name]
        lifetimes.append(
            Lifetime(value=port.signal_name(), birth=birth, death=death)
        )
    return lifetimes


def _appended_ids(
    ids: Mapping[str, int], size: int, operand: MuxOperand
) -> Tuple[int, Optional[int], List[str]]:
    """Canonical ``(left, right)`` signal ids of ``operand`` appended to an
    operand list whose ``size`` signals have first-occurrence ``ids``
    (exactly like ``_canonical_form``), plus the signals it introduces."""
    new: List[str] = []
    left = ids.get(operand.left)
    if left is None:
        left = size
        new.append(operand.left)
    if operand.right is None:
        right = None
    elif operand.right == operand.left:
        right = left
    else:
        right = ids.get(operand.right)
        if right is None:
            right = size + len(new)
            new.append(operand.right)
    return left, right, new


class _AllocationState:
    """Mutable hardware picture MFSA's dynamic Liapunov function reads.

    Two exact memo tables remove the redundant work of candidate
    evaluation:

    * ``_operand_cache`` — :class:`MuxOperand` construction per node.  A
      node's operand signals never change during a run, yet every probe
      of an instance needs the operand of each of its *members*.
    * ``_mux_with_cache`` — mux costs keyed by the instance's committed
      member tuple plus the candidate.  The optimised mux cost is a pure
      function of exactly those operand lists (the mux cost table is
      library-wide), so the key is valid forever: a commit grows the
      member tuple, which simply routes later probes of that instance to
      a new key — no invalidation walk.  Misses fall through to the
      process-wide renaming-canonical optimiser memo in
      :mod:`repro.allocation.mux`, where isomorphic operand lists across
      instances, schedulers and runs share one ``optimize_mux_inputs``
      call.

    Both caches are exact (same inputs → same deterministic optimiser
    call).  :func:`repro.check.pricing.check_mfsa_pricing` holds them to
    that: it re-prices every recorded move of a finished run from
    scratch, with none of these tables.
    """

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        library: CellLibrary,
        perf: Optional[PerfCounters] = None,
    ) -> None:
        self.dfg = dfg
        self.timing = timing
        self.library = library
        self.ops_on: Dict[Tuple[str, int], List[str]] = {}
        self.opened_columns: Dict[str, int] = {}
        self._mux_cost: Dict[Tuple[str, int], float] = {}
        self.registers = IncrementalRegisterEstimator()
        self.alu_area_spent = 0.0
        self.perf = perf
        self._operand_cache: Dict[str, MuxOperand] = {}
        self._mux_with_cache: Dict[Tuple[str, int, int, str], float] = {}
        # Canonical form (key, ids, names) of each instance's committed
        # member list, so a candidate probe extends it by one operand in
        # O(1) instead of re-canonicalising the whole list.  Entries are
        # dropped on commit and lazily rebuilt.
        self._canon_prefix: Dict[Tuple[str, int], tuple] = {}

    # -- ALU ------------------------------------------------------------
    def instance_open(self, cell: ALUCell, x: int) -> bool:
        return (cell.name, x) in self.ops_on

    def f_alu(self, cell: ALUCell, x: int) -> float:
        """§4.1: a new ALU costs its area; an existing one is free."""
        return 0.0 if self.instance_open(cell, x) else cell.area

    # -- MUX ------------------------------------------------------------
    def _mux_operand(self, name: str) -> MuxOperand:
        cached = self._operand_cache.get(name)
        if cached is not None:
            if self.perf is not None:
                self.perf.incr("mfsa.operand_cache_hits")
            return cached
        operand = node_operand(self.dfg, self.timing.ops, name)
        if self.perf is not None:
            self.perf.incr("mfsa.operand_cache_misses")
        self._operand_cache[name] = operand
        return operand

    def mux_cost_before(self, cell: ALUCell, x: int) -> float:
        return self._mux_cost.get((cell.name, x), 0.0)

    def mux_cost_with(self, cell: ALUCell, x: int, name: str) -> float:
        members = self.ops_on.get((cell.name, x), [])
        # Member lists only ever grow, so (instance, member count,
        # candidate) identifies the operand list — an O(1) key where
        # hashing the member tuple itself would walk the whole list.
        memo_key = (cell.name, x, len(members), name)
        cached = self._mux_with_cache.get(memo_key)
        if cached is not None:
            if self.perf is not None:
                self.perf.incr("mfsa.mux_cache_hits")
            return cached
        if self.perf is not None:
            self.perf.incr("mfsa.mux_cache_misses")
        # Second level: the process-wide renaming-canonical memo in
        # repro.allocation.mux — isomorphic operand lists (across
        # instances, runs and schedulers) share one optimiser call.  The
        # canonical key is built by extending the instance's committed
        # canonical prefix with the candidate operand in O(1), instead of
        # re-canonicalising the whole member list on every probe.
        prefix = self._canon_prefix.get((cell.name, x))
        if prefix is None:
            canon_key, canon_names = _canonical_form(
                [self._mux_operand(member) for member in members]
            )
            canon_ids = {s: i for i, s in enumerate(canon_names)}
            prefix = (canon_key, canon_ids, canon_names)
            self._canon_prefix[(cell.name, x)] = prefix
        canon_key, canon_ids, canon_names = prefix
        operand = self._mux_operand(name)
        left, right, _new = _appended_ids(canon_ids, len(canon_names), operand)
        full_key = canon_key + ((left, right, operand.commutative),)
        n1, n2 = cached_mux_sizes_for_key(full_key, perf=self.perf)
        costs = self.library.mux_costs
        cost = costs.cost(n1) + costs.cost(n2)
        self._mux_with_cache[memo_key] = cost
        return cost

    def f_mux(self, cell: ALUCell, x: int, name: str) -> float:
        """§4.1: multiplexer cost delta under best signal sharing."""
        return self.mux_cost_with(cell, x, name) - self.mux_cost_before(cell, x)

    # -- REG ------------------------------------------------------------
    def f_reg(self, lifetimes: List[Lifetime]) -> float:
        """§4.1/§5.8: new registers required, via activity selection."""
        return self.registers.cost_of(lifetimes) * self.library.register_area

    # -- commit ----------------------------------------------------------
    def commit(
        self, name: str, cell: ALUCell, x: int, lifetimes: List[Lifetime]
    ) -> None:
        key = (cell.name, x)
        if key not in self.ops_on:
            self.alu_area_spent += cell.area
        self._mux_cost[key] = self.mux_cost_with(cell, x, name)
        # Appending to the member list retires the old memo key of this
        # instance automatically — no explicit invalidation needed.  The
        # canonical prefix is extended in place by the committed operand
        # (first-occurrence indexing, exactly like _canonical_form).
        self.ops_on.setdefault(key, []).append(name)
        entry = self._canon_prefix.get(key)
        if entry is not None:
            canon_key, canon_ids, canon_names = entry
            if canon_key is None:  # pragma: no cover - duplicate op ids
                self._canon_prefix.pop(key, None)
            else:
                operand = self._mux_operand(name)
                left, right, new = _appended_ids(
                    canon_ids, len(canon_names), operand
                )
                for signal in new:
                    canon_ids[signal] = len(canon_names)
                    canon_names.append(signal)
                self._canon_prefix[key] = (
                    canon_key + ((left, right, operand.commutative),),
                    canon_ids,
                    canon_names,
                )
        self.opened_columns[cell.name] = max(
            self.opened_columns.get(cell.name, 0), x
        )
        self.registers.commit(lifetimes)

    def excluded_instances(self, cell: ALUCell, name: str) -> Tuple[int, ...]:
        """Style-2 exclusions: instances hosting a predecessor/successor."""
        related = set(self.dfg.predecessors(name)) | set(self.dfg.successors(name))
        banned = []
        for (cell_name, x), members in self.ops_on.items():
            if cell_name == cell.name and related & set(members):
                banned.append(x)
        return tuple(banned)


class MFSAScheduler(MoveFrameScheduler):
    """Configurable MFSA runner (time-constrained, per the paper's Table 2).

    Parameters mirror :class:`~repro.core.mfs.MFSScheduler`; additionally:

    library:
        The :class:`CellLibrary` of available (multifunction) ALUs,
        registers and mux costs.
    style:
        1 = unrestricted RTL, 2 = no self-loop around ALUs (§4.2).
    weights:
        The §4.1 weighted-Liapunov emphasis (default: all ones).
    open_policy:
        ``"reuse-first"`` (the paper's redundant-frame rule: open a new
        ALU instance only when no opened one can host the operation) or
        ``"eager"`` (always offer a fresh instance, letting f_TIME
        dominance buy hardware for earlier steps — an ablation knob).
    area_budget:
        Optional ALU-area cap (cost-constrained synthesis in the spirit
        of the paper's ref. [9]): opening an instance that would push the
        summed ALU area past the budget is forbidden; if no placement
        remains the run fails rather than overspend.  The reuse-first
        policy already opens the fewest instances the greedy can, so the
        cap certifies a ceiling (and catches regressions) rather than
        buying area below the policy's natural appetite — a budget under
        that appetite raises :class:`InfeasibleScheduleError`.
    kernel:
        Inner-loop implementation: ``"scalar"`` (the reference walk),
        ``"vector"`` (numpy bitmask frames and one broadcasted §4.1
        energy matrix per cell; needs the ``[accel]`` extra), or
        ``"auto"`` (vector when numpy is present and the DFG is large
        enough to pay for it).  Both kernels are byte-identical —
        :mod:`repro.core.kernel` documents the dispatch rules and the
        features (tracing, pipelining) that pin a run to the scalar walk.
    record_alternatives:
        Keep the full (position, energy) candidate list per move in the
        trajectory.  On by default (it backs the strongest stability
        check); sweeps may disable it to skip the list construction.
    verify:
        Audit the finished run with :mod:`repro.check` (schedule
        legality, grid-occupancy consistency, Liapunov descent, datapath
        and netlist consistency) and raise
        :class:`~repro.errors.VerificationError` on any violation.
    perf:
        Optional :class:`~repro.perf.PerfCounters` receiving candidate/
        cache counters and the ``mfsa.run`` timer.
    trace:
        Optional :class:`~repro.trace.recorder.TraceRecorder` receiving
        typed decision events — frame constructions, per-candidate
        energies with the §4.1 ``f_TIME``/``f_ALU``/``f_MUX``/``f_REG``
        breakdown, commits (with the chosen ALU cell), fresh-instance
        rescheduling steps, and the run summary including the Table-2
        cost roll-up (plus the ``perf`` counter snapshot when both are
        given).  ``None`` (the default) records nothing and costs
        nothing.
    """

    algorithm = "mfsa"

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        library: CellLibrary,
        cs: int,
        style: int = 1,
        weights: LiapunovWeights = LiapunovWeights(),
        latency_l: Optional[int] = None,
        pipelined_kinds: Iterable[str] = (),
        record_alternatives: bool = True,
        open_policy: str = "reuse-first",
        area_budget: Optional[float] = None,
        kernel: str = "auto",
        verify: bool = False,
        perf: Optional[PerfCounters] = None,
        trace: Optional["TraceRecorder"] = None,
    ) -> None:
        if style not in (1, 2):
            raise ValueError(f"style must be 1 or 2, got {style}")
        super().__init__(
            dfg, timing, latency_l, pipelined_kinds, record_alternatives,
            kernel, verify, perf, trace,
        )
        if open_policy not in ("reuse-first", "eager"):
            raise ValueError(
                f"open_policy must be 'reuse-first' or 'eager', got {open_policy!r}"
            )
        self.library = library
        self.cs = cs
        self.style = style
        self.weights = weights
        self.open_policy = open_policy
        if area_budget is not None and area_budget <= 0:
            raise ValueError(f"area_budget must be positive, got {area_budget}")
        self.area_budget = area_budget

        dfg.validate(timing.ops)
        library.check_covers(dfg.kinds_used())
        self._check_pipelining()

    # -- engine hooks ---------------------------------------------------
    def _empty_result(self):
        raise ScheduleError("MFSA needs a non-empty DFG")

    def _trace_info(self) -> Dict[str, object]:
        return {"style": self.style}

    def _open_tables(self, asap, alap) -> PlacementGrid:
        """One table per capable ALU cell (§4.1), one column per
        compatible operation — the "presummed big number"."""
        dfg, library = self.dfg, self.library
        self._cells_by_kind: Dict[str, Tuple[ALUCell, ...]] = {
            kind: library.cells_for(kind) for kind in dfg.kinds_used()
        }
        self._cell_rank = {cell.name: i for i, cell in enumerate(library.cells())}
        counts = dfg.count_by_kind()
        columns: Dict[str, int] = {}
        pipelined_tables = []
        for cell in library.cells():
            compatible = sum(counts.get(kind, 0) for kind in cell.kinds)
            if compatible == 0:
                continue
            columns[cell.name] = compatible
            if cell.kinds and cell.kinds <= self.pipelined_kinds:
                pipelined_tables.append(cell.name)
        grid = PlacementGrid(
            dfg,
            self.cs,
            columns=columns,
            latency_l=self.latency_l,
            pipelined_tables=pipelined_tables,
        )
        self._liapunov = MFSALiapunov(library, self.weights)
        self._state = _AllocationState(dfg, self.timing, library, perf=self.perf)
        # Area-budget bookkeeping: cheapest capable cell per kind and how
        # many operations of each kind are still unplaced.  Opening an
        # instance must leave enough headroom to cover every kind that
        # would otherwise end up with no capable instance at all.
        self._cheapest_area = {
            kind: min(cell.area for cell in cells)
            for kind, cells in self._cells_by_kind.items()
        }
        self._remaining = dict(counts)
        # Lazy f_MUX (vector kernel): with a monotone mux-cost table the
        # zero-mux energy lower-bounds a column, so columns that cannot
        # beat the running best skip the §5.6 optimiser entirely.  The
        # argmin (and hence every result) is unchanged; only the mux/
        # operand cache counters reflect the skipped work, so pruning
        # stays off when the caller wants the full per-candidate record.
        self._prune_mux = not self.record_alternatives and (
            _kernel.mux_costs_monotone(library.mux_costs, 2 * len(dfg) + 2)
        )
        return grid

    def _reserve_after(self, cell: ALUCell, for_kind: str) -> float:
        """Headroom needed for kinds not yet covered by any instance.

        A lower bound: the dearest single uncovered kind's cheapest cell
        (one multifunction cell may cover several kinds at once, so
        summing would over-reserve and reject feasible budgets).
        """
        reserve = 0.0
        for kind, left in self._remaining.items():
            pending = left - (1 if kind == for_kind else 0)
            if pending <= 0:
                continue
            if cell.can_execute(kind):
                continue
            if any(
                self.library.cell(cell_name).can_execute(kind)
                for (cell_name, _x) in self._state.ops_on
            ):
                continue
            reserve = max(reserve, self._cheapest_area[kind])
        return reserve

    def _place(self, name: str, kind: str, latency: int, bounds):
        """Dynamic-Liapunov argmin over every capable cell's move frame.

        The paper's redundant-frame rule first offers only already opened
        ALU instances; when that move frame is empty, MFSA "locally
        reschedules" by letting one fresh instance per cell join the frame,
        and the f_ALU term arbitrates which cell to open (§4).
        """
        dfg, timing, grid = self.dfg, self.timing, self._grid
        state, liapunov = self._state, self._liapunov
        perf, trace = self.perf, self.trace
        cell_rank, placed_ends = self._cell_rank, self._placed_ends
        area_budget = self.area_budget
        record_alternatives = self.record_alternatives
        # A frame's move positions are per-(x, y) feasibility checks with
        # no cross-position coupling, so the reuse-pass frame equals the
        # fresh-pass frame filtered to x <= opened (the filter the pricing
        # below applies anyway): one frame per cell — a FrameSet, or a
        # (mask, lo_y) pair on the vector kernel — serves both passes.
        frames: Dict[str, object] = {}
        reg_cache: Dict[int, Tuple[float, List[Lifetime]]] = {}
        alternatives: List[Tuple[GridPosition, float]] = []
        # Traced candidates accumulate in a plain local list (cheap) and
        # land in the recorder as one batch at commit time.
        traced: Optional[list] = [] if trace is not None else None

        def lifetimes_at(y: int) -> List[Lifetime]:
            return input_lifetimes(
                dfg, timing, name, y, placed_ends, self.pipelined_kinds
            )

        if bounds is not None:
            np = _kernel.np
            # Batched f_REG: the node's unknown input signals and the
            # death offset every candidate step implies (the death of a
            # step-0 probe); the per-step
            # counts are computed lazily, once per node, over the whole
            # primary-frame row range (shared by every cell — the row
            # bounds are table-independent).
            reg_seen: set = set()
            reg_batch: List = []
            probe = lifetimes_at(0)
            reg_delta = probe[0].death if probe else 0
            reg_births = [
                lifetime.birth
                for lifetime in probe
                if not state.registers.is_known(lifetime.value)
            ]

        def gather(fresh_instance: bool):
            """Best candidate of one pass (``None`` if the frame is empty)."""
            best_key = None
            best_choice = None
            for cell in self._cells_by_kind[kind]:
                opened = state.opened_columns.get(cell.name, 0)
                if not fresh_instance and opened == 0:
                    continue
                frame = frames.get(cell.name)
                if frame is None:
                    frame = self._frame(
                        name,
                        cell.name,
                        latency,
                        min(opened + 1, grid.columns(cell.name)),
                        bounds,
                        state.excluded_instances(cell, name)
                        if self.style == 2
                        else (),
                    )
                    frames[cell.name] = frame
                # Opening an instance of this cell would overspend the
                # area budget: only already-open instances stay eligible.
                overspend = area_budget is not None and (
                    state.alu_area_spent
                    + cell.area
                    + self._reserve_after(cell, kind)
                    > area_budget
                )

                if bounds is None:
                    # Scalar walk.  f_ALU and f_MUX depend on the instance
                    # column only, f_REG on the step only: each is priced
                    # once per column / row and reused across the frame.
                    hw_cache: Dict[int, Tuple[float, float]] = {}
                    for position in frame.mf:
                        if not fresh_instance and position.x > opened:
                            continue
                        if overspend and not state.instance_open(cell, position.x):
                            continue
                        reg = reg_cache.get(position.y)
                        if reg is None:
                            if perf is not None:
                                perf.incr("mfsa.reg_cache_misses")
                            lifetimes = lifetimes_at(position.y)
                            reg = (state.f_reg(lifetimes), lifetimes)
                            reg_cache[position.y] = reg
                        elif perf is not None:
                            perf.incr("mfsa.reg_cache_hits")
                        f_reg, lifetimes = reg
                        hw = hw_cache.get(position.x)
                        if hw is None:
                            hw = (
                                state.f_alu(cell, position.x),
                                state.f_mux(cell, position.x, name),
                            )
                            hw_cache[position.x] = hw
                        f_alu, f_mux = hw
                        energy = liapunov.value(position.y, f_alu, f_mux, f_reg)
                        if perf is not None:
                            perf.incr("mfsa.candidates_evaluated")
                        if traced is not None:
                            traced.append((
                                cell.name,
                                position.x,
                                position.y,
                                energy,
                                f_alu,
                                f_mux,
                                f_reg,
                            ))
                        if record_alternatives:
                            alternatives.append((position, energy))
                        key = (
                            energy,
                            position.y,
                            cell_rank[cell.name],
                            position.x,
                        )
                        if best_key is None or key < best_key:
                            best_key = key
                            best_choice = (cell, position, energy, lifetimes)
                    continue

                # Vector kernel: the reuse pass is a column slice
                # ``x <= opened``; the §4.1 terms are gathered once per
                # active row (f_REG) and column (f_ALU, f_MUX) — the same
                # calls, in a counter-identical pattern, as the scalar
                # walk's caches make — and priced in one broadcast.
                mask, lo_y = frame
                if mask is None:
                    continue
                limit = (
                    mask.shape[1] if fresh_instance else min(opened, mask.shape[1])
                )
                if limit < 1:
                    continue
                sub = mask[:, :limit]
                if overspend:
                    col_ok = np.array(
                        [state.instance_open(cell, j + 1) for j in range(limit)]
                    )
                    sub = sub & col_ok[None, :]
                if not sub.any():
                    continue
                n_candidates = int(sub.sum())
                row_idx = np.nonzero(sub.any(axis=1))[0]
                col_idx = np.nonzero(sub.any(axis=0))[0]
                if not reg_batch:
                    reg_counts = _kernel.batched_reg_costs(
                        state.registers,
                        reg_births,
                        reg_delta,
                        lo_y,
                        lo_y + mask.shape[0] - 1,
                    )
                    reg_batch.append(reg_counts * self.library.register_area)
                f_reg_vec = reg_batch[0]
                misses = 0
                for i in row_idx:
                    y = lo_y + int(i)
                    if y not in reg_seen:
                        reg_seen.add(y)
                        misses += 1
                if perf is not None:
                    perf.incr("mfsa.candidates_evaluated", n_candidates)
                    perf.incr("mfsa.reg_cache_misses", misses)
                    perf.incr("mfsa.reg_cache_hits", n_candidates - misses)
                f_alu_vec = np.zeros(limit)
                for j in col_idx:
                    f_alu_vec[j] = state.f_alu(cell, int(j) + 1)
                ys = np.arange(lo_y, lo_y + sub.shape[0], dtype=np.int64)
                eval_cols = col_idx
                if self._prune_mux and best_key is not None:
                    # Zero-mux energies lower-bound each column; any column
                    # whose bound already exceeds the running best cannot
                    # host the argmin and skips the §5.6 mux optimiser.
                    bound = liapunov.value_grid(
                        ys, f_alu_vec, np.zeros(limit), f_reg_vec
                    )
                    col_lb = np.where(sub, bound, np.inf).min(axis=0)
                    keep = col_lb[col_idx] <= best_key[0]
                    if not keep.any():
                        continue
                    if not keep.all():
                        eval_cols = col_idx[keep]
                        col_ok = np.zeros(limit, dtype=bool)
                        col_ok[eval_cols] = True
                        sub = sub & col_ok[None, :]
                f_mux_vec = np.zeros(limit)
                for j in eval_cols:
                    f_mux_vec[j] = state.f_mux(cell, int(j) + 1, name)
                energy = liapunov.value_grid(ys, f_alu_vec, f_mux_vec, f_reg_vec)
                if record_alternatives:
                    alternatives.extend(
                        zip(
                            _kernel.mask_positions(sub, cell.name, lo_y),
                            energy[sub].tolist(),
                        )
                    )
                position, best_energy = _kernel.argmin_position(
                    sub, energy, cell.name, lo_y
                )
                best_energy = float(best_energy)
                key = (best_energy, position.y, cell_rank[cell.name], position.x)
                if best_key is None or key < best_key:
                    best_key = key
                    best_choice = (
                        cell, position, best_energy, lifetimes_at(position.y)
                    )
            return best_choice

        if self.open_policy == "eager":
            best_choice = gather(fresh_instance=True)
        else:
            best_choice = gather(fresh_instance=False)
            if best_choice is None:
                # §4: no opened instance can host the op — let a fresh
                # instance per cell join the frame (f_ALU arbitrates).
                if trace is not None:
                    trace.reschedule(name, kind, "fresh-instance", 0)
                best_choice = gather(fresh_instance=True)
        if best_choice is None:
            raise InfeasibleScheduleError(
                f"MFSA found no position for {name!r} ({kind}) in "
                f"{self.cs} steps (style {self.style})"
            )
        cell, position, energy, lifetimes = best_choice
        if trace is not None:
            trace.candidates_detailed(name, traced, liapunov.c_constant)
        self._remaining[kind] -= 1
        state.commit(name, cell, position.x, lifetimes)
        return position, energy, tuple(alternatives), cell

    def _finish(self, schedule, grid, trajectory) -> MFSAResult:
        binding = {
            name: (pos.table, pos.x) for name, pos in grid.placements().items()
        }
        datapath = Datapath(schedule, self.library, binding, count_inputs=True)
        if self.style == 2 and datapath.has_self_loop():
            raise ScheduleError(
                "style-2 MFSA produced a self-loop around an ALU (internal error)"
            )
        return MFSAResult(
            schedule=schedule,
            datapath=datapath,
            placements=grid.placements(),
            trajectory=trajectory,
            grid=grid,
            style=self.style,
            weights=self.weights,
        )

    def _run_summary(self, result: MFSAResult) -> Dict[str, object]:
        cost = result.cost
        return {
            "cost": {
                "alu": cost.alu,
                "registers": cost.registers,
                "mux": cost.mux,
                "total": cost.total,
            },
            "alus": result.alu_labels(),
        }

    def _audit(self, result: MFSAResult):
        from repro.check.runner import check_mfsa_result

        return check_mfsa_result(result)


def mfsa_synthesize(
    dfg: DFG,
    timing: TimingModel,
    library: CellLibrary,
    cs: int,
    **kwargs,
) -> MFSAResult:
    """One-call convenience wrapper around :class:`MFSAScheduler`."""
    return MFSAScheduler(dfg, timing, library, cs, **kwargs).run()
