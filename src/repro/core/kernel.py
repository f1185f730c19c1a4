"""Scheduling-kernel dispatch: scalar reference vs numpy-vectorised inner loop.

The MFS/MFSA inner loop prices every candidate grid position of every
operation.  The *scalar* kernel — the reference walk of
:mod:`repro.core.mfs` / :mod:`repro.core.mfsa` — walks the move frame one
``GridPosition`` at a time; the *vector* kernel replaces that walk with
numpy bitmask arithmetic over whole frames:

* the placement grid is mirrored into one boolean occupancy matrix per
  table (``[y, x]``, row-major, 1-based like the grid);
* the forbidden/chain row filters and the column filters become boolean
  index vectors;
* a latency-``k`` operation's availability is the sliding ``any`` of the
  occupancy window, an O(k) sequence of vectorised ORs;
* the Liapunov energies of all admissible positions are one broadcasted
  expression, evaluated with exactly the scalar path's operation order so
  the floats — and therefore every tie-break — are bit-identical;
* the argmin is a row-major flat ``argmin``, which reproduces the scalar
  tie order (energy, then step ``y``, then instance ``x``) because the
  matrix is laid out ``[y, x]``.

Both kernels produce **byte-identical results** — schedules, placements,
trajectories, costs; :mod:`repro.check.kernels` and the hypothesis suite
in ``tests/property/test_property_kernel.py`` enforce it.  numpy is an
optional dependency (the ``repro[accel]`` extra): when it is missing the
dispatcher silently selects the scalar kernel, so the library keeps its
stdlib-only floor.

Dispatch policy (:func:`resolve_kernel`):

* ``"scalar"`` — always the reference loop;
* ``"vector"`` — always the numpy loop; raises
  :class:`KernelUnavailableError` without numpy;
* ``"auto"`` (the default) — the vector kernel when numpy is importable
  *and* the workload is big enough to pay for the array overhead
  (``n_ops >= VECTOR_MIN_OPS``); tiny paper examples stay on the scalar
  loop, where per-position python beats per-frame numpy setup.

Independently of the requested kernel, a run falls back to the scalar
loop for the features the vector loop does not model: attached trace
recorders (the per-candidate event stream *is* the scalar walk), MFS
``record_frames`` (the Figure-2 harness wants faithful per-pass
``FrameSet`` logs), functional pipelining / structurally pipelined tables
(folded occupancy), and user-supplied Liapunov subclasses (only the paper
functions have a closed form the kernel trusts).  :func:`vector_supported`
holds the feature rule; the move-frame engine
(:mod:`repro.core.engine`) makes the one decision both schedulers share.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ScheduleError
from repro.core.grid import GridPosition, PlacementGrid

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

#: Whether the vector kernel can run in this interpreter.
HAVE_NUMPY = np is not None

#: Recognised kernel names.
KERNELS = ("auto", "scalar", "vector")

#: ``auto`` switches to the vector kernel at this DFG size.  Below it the
#: scalar loop wins: a paper example's move frames hold a handful of
#: positions, and one numpy broadcast costs more than pricing them all in
#: python.  Both kernels are byte-identical, so the threshold is purely a
#: performance knob.
VECTOR_MIN_OPS = 48


class KernelUnavailableError(ScheduleError):
    """The explicitly requested kernel cannot run (numpy missing)."""


def available_kernels() -> Tuple[str, ...]:
    """Concrete kernels this interpreter can run."""
    return ("scalar", "vector") if HAVE_NUMPY else ("scalar",)


def resolve_kernel(name: str = "auto", n_ops: Optional[int] = None) -> str:
    """Resolve a kernel request to ``"scalar"`` or ``"vector"``.

    ``n_ops`` feeds the ``auto`` size heuristic; ``None`` means "assume
    big" (callers that resolve once per sweep rather than per design).
    """
    if name not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {name!r}")
    if name == "scalar":
        return "scalar"
    if name == "vector":
        if not HAVE_NUMPY:
            raise KernelUnavailableError(
                "kernel 'vector' requested but numpy is not installed "
                "(pip install repro[accel]); the scalar kernel is always "
                "available"
            )
        return "vector"
    if not HAVE_NUMPY:
        return "scalar"
    if n_ops is not None and n_ops < VECTOR_MIN_OPS:
        return "scalar"
    return "vector"


def vector_supported(
    *,
    trace: bool = False,
    record_frames: bool = False,
    latency_l: Optional[int] = None,
    pipelined_tables: Sequence[str] = (),
) -> bool:
    """Whether a run's feature set is covered by the vector inner loop.

    Unsupported combinations silently use the scalar reference loop —
    results are identical either way, only the walk differs.
    """
    folded = latency_l is not None or bool(pipelined_tables)
    return HAVE_NUMPY and not (trace or record_frames or folded)


# ----------------------------------------------------------------------
# numpy occupancy mirror
# ----------------------------------------------------------------------
class VectorGrid:
    """Boolean occupancy mirror of a :class:`PlacementGrid`.

    One ``bool[cs + 2, columns + 1]`` matrix per table, indexed ``[y, x]``
    with the grid's 1-based coordinates (row 0 / column 0 stay unused so
    no index arithmetic differs from the scalar path).  The scheduler
    notifies the mirror on every :meth:`place`; tables are (re)built from
    the grid's authoritative occupancy when first touched or after a
    :meth:`PlacementGrid.widen`.

    The mirror records "at least one occupant".  Mutual exclusion (§5.1)
    makes some occupied cells still placeable; when the DFG carries any
    branch information, the mask builders re-check exactly those cells
    through :meth:`PlacementGrid.is_free`, so exclusion semantics stay
    centralised in the grid.
    """

    def __init__(self, grid: PlacementGrid) -> None:
        if np is None:  # pragma: no cover - guarded by dispatch
            raise KernelUnavailableError("VectorGrid needs numpy")
        self._grid = grid
        self._occ: Dict[str, "np.ndarray"] = {}

    def table(self, table: str) -> "np.ndarray":
        """The occupancy matrix of ``table`` (rebuilt after widening)."""
        occ = self._occ.get(table)
        columns = self._grid.columns(table)
        if occ is None or occ.shape[1] < columns + 1:
            occ = np.zeros((self._grid.cs + 2, columns + 1), dtype=bool)
            for x, y in self._grid.occupancy_cells(table):
                occ[y, x] = True
            self._occ[table] = occ
        return occ

    def place(self, position: GridPosition, latency: int) -> None:
        """Mirror one placement (non-folded occupancy only)."""
        occ = self.table(position.table)
        occ[position.y : position.y + latency, position.x] = True


# ----------------------------------------------------------------------
# move-frame masks
# ----------------------------------------------------------------------
def move_frame_mask(
    view: VectorGrid,
    grid: PlacementGrid,
    node: str,
    table: str,
    latency: int,
    lo_y: int,
    hi_y: int,
    top_col: int,
    latest_pred_end: int,
    ff_rows_after: int,
    chain_rows: Tuple[int, ...],
    banned: Tuple[int, ...] = (),
    has_exclusions: bool = False,
) -> Tuple[Optional["np.ndarray"], int]:
    """Admissible-position mask of one (node, table) move frame.

    Returns ``(mask, lo_y)`` where ``mask[i, j]`` covers step
    ``lo_y + i`` and instance column ``j + 1`` — or ``(None, lo_y)``
    when the frame is geometrically empty.  Mirrors, bit for bit, the
    filter chain of :func:`repro.core.frames.compute_frames`: primary
    rows, forbidden rows (chain re-admission included), the column
    budget, style-2 exclusions, and grid occupancy over the full latency
    span.
    """
    cs = grid.cs
    lo_y = max(lo_y, 1)
    hi_y = min(hi_y, cs - latency + 1)
    if hi_y < lo_y or top_col < 1:
        return None, lo_y

    ys = np.arange(lo_y, hi_y + 1)
    row_ok = ys > latest_pred_end
    if chain_rows:
        row_ok |= np.isin(ys, np.array(chain_rows))
    row_ok &= ys < ff_rows_after

    occ = view.table(table)
    window = occ[lo_y : hi_y + latency, 1 : top_col + 1]
    n_rows = len(ys)
    blocked = window[0:n_rows].copy()
    for offset in range(1, latency):
        blocked |= window[offset : offset + n_rows]

    mask = row_ok[:, None] & ~blocked
    banned_cols = [x - 1 for x in banned if 1 <= x <= top_col]
    if banned_cols:
        mask[:, banned_cols] = False

    if has_exclusions:
        # Occupied cells may still admit a mutually exclusive node —
        # re-check exactly those through the grid's full predicate.
        recheck = row_ok[:, None] & blocked
        if banned_cols:
            recheck[:, banned_cols] = False
        for i, j in zip(*np.nonzero(recheck)):
            if grid.is_free(node, table, int(j) + 1, int(ys[i]), latency):
                mask[i, j] = True

    return mask, lo_y


def argmin_position(
    mask: "np.ndarray", energy: "np.ndarray", table: str, lo_y: int
) -> Tuple[GridPosition, float]:
    """Row-major argmin over the masked energy matrix.

    Equivalent to the scalar walk's ``min`` under the key
    ``(energy, y, x)``: ``flat argmin`` returns the first minimal entry
    in ``[y, x]`` order.
    """
    masked = np.where(mask, energy, np.inf)
    flat = int(np.argmin(masked))
    i, j = divmod(flat, mask.shape[1])
    return GridPosition(table, j + 1, lo_y + i), masked[i, j]


def mask_positions(
    mask: "np.ndarray", table: str, lo_y: int
) -> List[GridPosition]:
    """The mask's admissible positions, in the scalar walk's (y, x) order."""
    rows, cols = np.nonzero(mask)
    return [
        GridPosition(table, int(j) + 1, lo_y + int(i))
        for i, j in zip(rows, cols)
    ]


def static_argmin(
    mask: "np.ndarray",
    lo_y: int,
    table: str,
    liapunov,
    want_alternatives: bool,
) -> Tuple[GridPosition, int, Tuple]:
    """MFS placement pick: static Liapunov argmin over one frame mask.

    Evaluates ``liapunov.value_xy`` on the whole frame in one broadcast —
    both paper functions are integer-valued on integer coordinates, so
    the int64 matrix carries the exact scalar energies — and returns
    ``(position, energy, alternatives)`` with the same tie order and, if
    requested, the same (position, energy) candidate sequence the scalar
    walk records.
    """
    ys = np.arange(lo_y, lo_y + mask.shape[0], dtype=np.int64)
    xs = np.arange(1, mask.shape[1] + 1, dtype=np.int64)
    energy = liapunov.value_xy(xs[None, :], ys[:, None])
    masked = np.where(mask, energy, np.iinfo(np.int64).max)
    flat = int(np.argmin(masked))
    i, j = divmod(flat, mask.shape[1])
    chosen = GridPosition(table, j + 1, lo_y + i)
    alternatives: Tuple = ()
    if want_alternatives:
        alternatives = tuple(
            zip(mask_positions(mask, table, lo_y), energy[mask].tolist())
        )
    return chosen, int(masked[i, j]), alternatives


def mux_costs_monotone(costs, up_to: int) -> bool:
    """Certify ``Cost(MUX_{r+1}) >= Cost(MUX_r)`` for ``r < up_to``.

    Grounds the vector kernel's f_MUX pruning bound: with a monotone
    cost table, adding an operand to an instance can never *lower* its
    optimal mux cost (any (r+1)-operand assignment restricts to an
    r-operand one of no larger list sizes), hence ``f_MUX >= 0`` and an
    energy priced with ``f_MUX = 0`` lower-bounds the true energy (IEEE
    addition is monotone).  Custom tables can break monotonicity, so the
    scheduler checks once per run — a failed certificate just disables
    pruning, never correctness.
    """
    previous = costs.cost(1)
    for r in range(2, up_to + 1):
        current = costs.cost(r)
        if current < previous:
            return False
        previous = current
    return True


def batched_reg_costs(
    estimator,
    births: Sequence[int],
    delta: int,
    lo_y: int,
    hi_y: int,
) -> "np.ndarray":
    """f_REG register counts of one operation over a whole step range.

    ``births`` are the operation's input birth steps (unknown signals
    only, in operand order); starting the operation at step ``y`` gives
    every input the death ``y + delta``.  Returns ``counts`` where
    ``counts[i]`` equals ``IncrementalRegisterEstimator.cost_of`` of the
    inputs at step ``lo_y + i`` — the whole range in a few broadcasts
    instead of one greedy first-fit walk per step.

    The scalar estimator's walk has two ingredients, and both vectorise
    exactly over ``y``:

    * a committed track admits an input born at ``b`` iff the input's
      death stays within the track's threshold ``τ(b)``
      (:meth:`IncrementalRegisterEstimator.track_thresholds`) — one
      broadcast comparison per input;
    * two inputs of the same operation die on the same step, hence
      always conflict with each other: the tentative-placement interplay
      degenerates to "inputs claim distinct committed tracks in operand
      order; an unplaced input always opens its own new track".
    """
    n = hi_y - lo_y + 1
    deaths = np.arange(lo_y + delta, hi_y + delta + 1, dtype=np.int64)
    added = np.zeros(n, dtype=np.int64)
    claimed: List["np.ndarray"] = []
    for birth in births:
        needs = deaths > birth
        thresholds = estimator.track_thresholds(birth)
        if thresholds:
            tau = np.array(thresholds, dtype=np.int64)
            avail = tau[:, None] >= deaths[None, :]
            for prior in claimed:
                taken = np.nonzero(prior >= 0)[0]
                avail[prior[taken], taken] = False
            open_ok = avail.any(axis=0)
            first = avail.argmax(axis=0)
        else:
            open_ok = np.zeros(n, dtype=bool)
            first = np.zeros(n, dtype=np.int64)
        placed = needs & open_ok
        claimed.append(np.where(placed, first, -1))
        added += needs & ~open_ok
    return added
