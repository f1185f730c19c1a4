"""The move-frame engine: the placement loop MFS and MFSA share (§3.2, §4).

The paper describes one algorithm in two forms.  Each operation, in
priority order, gets its primary/redundant/forbidden frames and the move
frame ``MF = PF − (RF ∪ FF)``; it is committed at the argmin of the
Liapunov function ``V`` over ``MF``, and a new unit is opened when ``MF``
is empty (§3.2 step 4, §4).  Only ``V`` differs: the static ``x + n·y`` /
``cs·x + y`` of MFS (:mod:`repro.core.mfs`) and the dynamic
``f_TIME + f_ALU + f_MUX + f_REG`` of MFSA (:mod:`repro.core.mfsa`).

:class:`MoveFrameScheduler` owns everything the two share:

* the functional-pipelining check;
* ASAP/ALAP, the priority order and the frame builder of both kernels;
* the one scalar-or-vector kernel decision (:mod:`repro.core.kernel`);
* the per-operation commit — grid occupancy (and its numpy mirror),
  placed starts/ends, the chaining offset and the trajectory record;
* the finish — :class:`~repro.schedule.types.Schedule` build and
  validation, trajectory verification, the trace ``counters``/``run_end``
  events and the ``verify=True`` audit.

A subclass keeps only what differs: :meth:`~MoveFrameScheduler._open_tables`
(which tables an operation may use and how many columns each has),
:meth:`~MoveFrameScheduler._place` (how a frame is priced, and what an
empty move frame does — MFS opens one FU or widens the table, MFSA runs
its fresh-instance pass) and :meth:`~MoveFrameScheduler._finish` (the
result object).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.trace.recorder import TraceRecorder

from repro.errors import ScheduleError
from repro.dfg.analysis import TimingModel, alap_schedule, asap_schedule
from repro.dfg.graph import DFG
from repro.schedule.types import Schedule
from repro.core import kernel as _kernel
from repro.core.frames import compute_frames, frame_bounds
from repro.core.grid import GridPosition, PlacementGrid
from repro.core.liapunov import (
    MFSALiapunov,
    ResourceConstrainedLiapunov,
    TimeConstrainedLiapunov,
)
from repro.core.priorities import priority_order
from repro.core.stability import Trajectory
from repro.perf import PerfCounters

#: Liapunov functions with a closed form the vector kernel trusts; a
#: user-supplied subclass keeps its run on the scalar walk.
_CLOSED_FORM = (TimeConstrainedLiapunov, ResourceConstrainedLiapunov, MFSALiapunov)

#: What :meth:`MoveFrameScheduler._place` returns: the chosen position,
#: its energy, the recorded ``(position, energy)`` alternatives, and the
#: cell label the trace commit carries (``None`` for MFS).
Placement = Tuple[GridPosition, float, Tuple, object]


class MoveFrameScheduler:
    """The shared runner of one move-frame placement (see the module docstring).

    Subclasses set :attr:`algorithm` (the ``"mfs"``/``"mfsa"`` namespace
    of the run timer, the perf counters and the trace span) and
    :attr:`_liapunov` in :meth:`_open_tables`.  One instance drives one
    run at a time: :meth:`run` resets every piece of per-run state.
    """

    algorithm = ""
    #: Tail of the functional-pipelining error message (per algorithm:
    #: failed-job payloads cache the exact text).
    _pipelining_tail = ""
    #: Figure-2 frame logging (MFS only); pins a run to the scalar walk.
    record_frames = False
    #: Resource bounds the finished schedule must respect (MFS resource mode).
    resource_limits: Optional[Dict[str, int]] = None

    def __init__(
        self,
        dfg: DFG,
        timing: TimingModel,
        latency_l: Optional[int],
        pipelined_kinds: Iterable[str],
        record_alternatives: bool,
        kernel: str,
        verify: bool,
        perf: Optional[PerfCounters],
        trace: Optional["TraceRecorder"],
    ) -> None:
        if kernel not in _kernel.KERNELS:
            raise ValueError(
                f"kernel must be one of {_kernel.KERNELS}, got {kernel!r}"
            )
        self.kernel = kernel
        self.dfg = dfg
        self.timing = timing
        self.latency_l = latency_l
        self.pipelined_kinds = frozenset(str(k) for k in pipelined_kinds)
        self.record_alternatives = record_alternatives
        self.verify = verify
        self.perf = perf
        self.trace = trace

    def _check_pipelining(self) -> None:
        """§5.5: every kind must fit the initiation interval ``L``."""
        if self.latency_l is None:
            return
        if self.latency_l < 1:
            raise ScheduleError(f"latency L must be >= 1, got {self.latency_l}")
        for kind in self.dfg.kinds_used():
            latency = self.timing.latency(kind)
            if latency > self.latency_l and kind not in self.pipelined_kinds:
                raise ScheduleError(
                    f"kind {kind!r} (latency {latency}) cannot run under "
                    f"functional pipelining with L={self.latency_l}"
                    + self._pipelining_tail
                )

    # ------------------------------------------------------------------
    def run(self):
        """Execute the algorithm and return the full result."""
        if self.perf is None:
            return self._run()
        with self.perf.timer(f"{self.algorithm}.run"):
            return self._run()

    def _run(self):
        dfg, timing = self.dfg, self.timing
        trace, perf = self.trace, self.perf
        if len(dfg) == 0:
            return self._empty_result()
        if trace is not None:
            trace.run_start(self.algorithm, dfg.name, self.cs, **self._trace_info())

        self._asap = asap = asap_schedule(dfg, timing)
        self._alap = alap = alap_schedule(dfg, timing, self.cs)  # raises if infeasible
        self._grid = grid = self._open_tables(asap, alap)
        order = priority_order(dfg, timing, asap, alap)

        # Vector kernel: numpy bitmask frames instead of the per-position
        # walk, byte-identical to the scalar path (placements, energies,
        # trajectories, perf counters).  Unsupported feature combinations
        # and custom Liapunov subclasses stay on the scalar reference walk.
        use_vector = (
            _kernel.resolve_kernel(self.kernel, len(dfg)) == "vector"
            and _kernel.vector_supported(
                trace=trace is not None,
                record_frames=self.record_frames,
                latency_l=self.latency_l,
                pipelined_tables=grid.pipelined_tables,
            )
            and type(self._liapunov) in _CLOSED_FORM
        )
        self._view = view = _kernel.VectorGrid(grid) if use_vector else None
        self._has_exclusions = use_vector and any(node.branch for node in dfg)
        self._placed_starts = placed_starts = {}
        self._placed_ends = placed_ends = {}
        self._chain_offsets = chain_offsets = {}
        trajectory = Trajectory()

        for name in order:
            kind = dfg.node(name).kind
            latency = timing.latency(kind)
            bounds = (
                frame_bounds(dfg, timing, name, grid.cs, placed_starts, chain_offsets)
                if use_vector
                else None
            )
            position, energy, alternatives, label = self._place(
                name, kind, latency, bounds
            )
            if trace is not None:
                trace.commit(
                    name,
                    kind,
                    position.table,
                    position.x,
                    position.y,
                    energy,
                    latency,
                    cell=label,  # label() resolved at materialisation
                )
            grid.place(name, position, latency)
            if view is not None:
                view.place(position, latency)
            placed_starts[name] = position.y
            placed_ends[name] = position.y + latency - 1
            self._update_chain_offset(name, position.y)
            trajectory.record(
                node=name,
                position=position,
                energy=energy,
                alternatives=alternatives,
            )

        schedule = Schedule(
            dfg=dfg,
            timing=timing,
            cs=self.cs,
            starts=dict(placed_starts),
            latency_l=self.latency_l,
            pipelined_kinds=self.pipelined_kinds,
        )
        schedule.validate(resource_bounds=self.resource_limits)
        trajectory.verify()
        result = self._finish(schedule, grid, trajectory)
        if trace is not None:
            if perf is not None:
                trace.counters(dict(perf.counters))
            trace.run_end(commits=len(trajectory), **self._run_summary(result))
        if self.verify:
            self._audit(result).raise_if_failed()
        return result

    def _frame(self, name, table, latency, current, bounds, banned=()):
        """Build one move frame of ``name`` in ``table`` (§3.2 step 4).

        The scalar walk gets a :class:`~repro.core.frames.FrameSet`; the
        vector kernel (``bounds`` set) gets the ``(mask, lo_y)`` pair of
        :func:`~repro.core.kernel.move_frame_mask`.  ``current`` counts
        the opened columns; ``banned`` lists MFSA style-2 exclusions.
        """
        if self.perf is not None:
            self.perf.incr(f"{self.algorithm}.frames_computed")
        grid = self._grid
        if bounds is None:
            frame = compute_frames(
                self.dfg,
                self.timing,
                grid,
                name,
                table=table,
                asap=self._asap,
                alap=self._alap,
                current=current,
                placed_starts=self._placed_starts,
                chain_offsets=self._chain_offsets,
                excluded_instances=banned,
            )
            if self.trace is not None:
                self.trace.frame(name, table, frame, current)
            return frame
        _lat, latest_pred_end, ff_rows_after, chain_rows = bounds
        return _kernel.move_frame_mask(
            self._view,
            grid,
            name,
            table,
            latency,
            self._asap[name],
            self._alap[name],
            min(current, grid.columns(table)),
            latest_pred_end,
            ff_rows_after,
            chain_rows,
            banned=banned,
            has_exclusions=self._has_exclusions,
        )

    def _update_chain_offset(self, name: str, start: int) -> None:
        """§5.4: accumulated combinational delay of a chained placement."""
        timing = self.timing
        if not timing.chaining:
            return
        kind = self.dfg.node(name).kind
        if timing.latency(kind) != 1:
            return
        incoming = 0.0
        for pred in self.dfg.predecessors(name):
            if timing.latency(self.dfg.node(pred).kind) != 1:
                continue
            if self._placed_starts.get(pred) == start:
                incoming = max(incoming, self._chain_offsets.get(pred, 0.0))
        self._chain_offsets[name] = incoming + timing.delay_ns(kind)

    # -- what the algorithms supply -------------------------------------
    def _empty_result(self):
        """Result (or error) of a run over an empty DFG."""
        raise NotImplementedError

    def _trace_info(self) -> Dict[str, object]:
        """Extra ``info`` of the trace's run-start event."""
        raise NotImplementedError

    def _open_tables(self, asap, alap) -> PlacementGrid:
        """Build the placement grid and set :attr:`_liapunov`."""
        raise NotImplementedError

    def _place(self, name: str, kind: str, latency: int, bounds) -> Placement:
        """Choose one operation's position (``bounds`` set on the vector kernel)."""
        raise NotImplementedError

    def _finish(self, schedule: Schedule, grid: PlacementGrid, trajectory: Trajectory):
        """Wrap a validated schedule into the algorithm's result object."""
        raise NotImplementedError

    def _run_summary(self, result) -> Dict[str, object]:
        """Extra fields of the trace's run-end event."""
        raise NotImplementedError

    def _audit(self, result):
        """The :mod:`repro.check` report of a finished run."""
        raise NotImplementedError
