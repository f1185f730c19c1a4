"""Rendering and export utilities.

* :mod:`repro.io.dot` — Graphviz export of DFGs and schedules;
* :mod:`repro.io.text` — plain-text schedule and datapath tables;
* :mod:`repro.io.gridviz` — Figure-1-style placement-table rendering with
  a Liapunov move trajectory;
* :mod:`repro.io.frameviz` — Figure-2-style rendering of the PF/RF/FF/MF
  frames of one operation.
"""

from repro.io.dot import dfg_to_dot, schedule_to_dot
from repro.io.text import render_schedule, render_datapath
from repro.io.gridviz import render_grid, render_move
from repro.io.frameviz import render_frames
from repro.io.jsonio import (
    dfg_from_json,
    dfg_from_obj,
    dfg_to_json,
    schedule_to_json,
    synthesis_to_json,
)
from repro.io.svg import frames_to_svg, schedule_to_svg

__all__ = [
    "dfg_to_dot",
    "schedule_to_dot",
    "render_schedule",
    "render_datapath",
    "render_grid",
    "render_move",
    "render_frames",
    "dfg_to_json",
    "dfg_from_json",
    "dfg_from_obj",
    "schedule_to_json",
    "synthesis_to_json",
    "schedule_to_svg",
    "frames_to_svg",
]
