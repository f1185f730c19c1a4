"""Composed audits: whole MFS/MFSA results, paper examples, random DFGs.

This is the layer the CLI (``repro check``), the ``verify=True``
scheduler post-condition and the test-suite fixtures call into.  Each
entry point assembles the per-invariant checkers of this package into a
single :class:`~repro.check.report.CheckReport`.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional

from repro.check.allocation import (
    check_datapath_consistency,
    check_netlist_consistency,
)
from repro.check.differential import cross_validate
from repro.check.liapunov import check_liapunov_descent
from repro.check.pricing import check_mfsa_pricing
from repro.check.report import CheckReport
from repro.check.schedule import (
    check_frame_containment,
    check_grid_consistency,
    check_schedule_legality,
)


def check_mfs_result(
    result,
    resource_bounds: Optional[Mapping[str, int]] = None,
    differential: bool = False,
) -> CheckReport:
    """Audit one :class:`~repro.core.mfs.MFSResult` end to end."""
    schedule = result.schedule
    report = CheckReport(target=f"MFS {schedule.dfg.name} (cs={schedule.cs})")

    report.ran("schedule-legality")
    report.extend(check_schedule_legality(schedule, resource_bounds))
    if len(schedule.dfg):
        report.ran("frame-containment")
        report.extend(check_frame_containment(schedule))
        report.ran("grid-occupancy")
        report.extend(
            check_grid_consistency(schedule, result.grid, result.placements)
        )
    report.ran("liapunov-descent")
    report.extend(check_liapunov_descent(result.trajectory))

    if differential and len(schedule.dfg):
        report.ran("differential")
        violations, _outcome = cross_validate(
            schedule.dfg,
            schedule.timing,
            schedule.cs,
            fu_counts=dict(result.fu_counts),
            latency_l=schedule.latency_l,
            pipelined_kinds=frozenset(schedule.pipelined_kinds),
        )
        report.extend(violations)
    return report


def check_mfsa_result(result, differential: bool = False) -> CheckReport:
    """Audit one :class:`~repro.core.mfsa.MFSAResult` end to end.

    ``differential`` adds the from-scratch re-pricing oracle
    (:mod:`repro.check.pricing`) and the baseline cross-validation.
    """
    schedule = result.schedule
    report = CheckReport(target=f"MFSA {schedule.dfg.name} (cs={schedule.cs})")

    report.ran("schedule-legality")
    report.extend(check_schedule_legality(schedule))
    report.ran("frame-containment")
    report.extend(check_frame_containment(schedule))
    report.ran("grid-occupancy")
    report.extend(
        check_grid_consistency(schedule, result.grid, result.placements)
    )
    report.ran("liapunov-descent")
    report.extend(check_liapunov_descent(result.trajectory))
    report.ran("datapath-consistency")
    report.extend(
        check_datapath_consistency(
            result.datapath, expect_style2=(result.style == 2)
        )
    )
    report.ran("netlist-consistency")
    report.extend(check_netlist_consistency(result.datapath))

    if differential:
        report.ran("mfsa-pricing")
        report.extend(check_mfsa_pricing(result))
        report.ran("differential")
        violations, _outcome = cross_validate(
            schedule.dfg,
            schedule.timing,
            schedule.cs,
            fu_counts=dict(schedule.fu_usage()),
            latency_l=schedule.latency_l,
            pipelined_kinds=frozenset(schedule.pipelined_kinds),
        )
        report.extend(violations)
    return report


def check_schedule(
    schedule, resource_bounds: Optional[Mapping[str, int]] = None
) -> CheckReport:
    """Audit a bare :class:`~repro.schedule.types.Schedule` (no grid)."""
    report = CheckReport(
        target=f"schedule {schedule.dfg.name} (cs={schedule.cs})"
    )
    report.ran("schedule-legality")
    report.extend(check_schedule_legality(schedule, resource_bounds))
    if len(schedule.dfg):
        report.ran("frame-containment")
        report.extend(check_frame_containment(schedule))
    return report


# ----------------------------------------------------------------------
# Paper-example and random-workload harnesses
# ----------------------------------------------------------------------
def check_example(key: str, differential: bool = True) -> CheckReport:
    """Audit every Table-1 MFS case and both MFSA styles of one example."""
    from repro.bench.suites import EXAMPLES
    from repro.bench.table1 import run_case
    from repro.bench.table2 import run_example

    spec = EXAMPLES[key]
    report = CheckReport(target=f"example {key} ({spec.description})")
    for index, case in enumerate(spec.table1_cases):
        result = run_case(spec, case)
        sub = check_mfs_result(result, differential=differential)
        sub.target = f"{key} table1[{index}] (cs={case.cs})"
        _merge_sub(report, sub)
    for style in (1, 2):
        result = run_example(spec, style)
        sub = check_mfsa_result(result, differential=differential)
        sub.target = f"{key} table2 style {style}"
        _merge_sub(report, sub)
    return report


def check_all_examples(
    keys: Optional[Iterable[str]] = None, differential: bool = True
) -> List[CheckReport]:
    """Audit the paper's six examples (or the given subset)."""
    from repro.bench.suites import EXAMPLES

    return [
        check_example(key, differential=differential)
        for key in (list(keys) if keys else sorted(EXAMPLES))
    ]


def check_random_dfgs(
    count: int = 10,
    seed: int = 0,
    n_ops: int = 24,
    differential: bool = True,
) -> CheckReport:
    """Audit MFS and MFSA over generator-produced random workloads."""
    from repro.dfg.analysis import TimingModel, critical_path_length
    from repro.dfg.generators import random_dfg
    from repro.dfg.ops import standard_operation_set
    from repro.core.mfs import MFSScheduler
    from repro.core.mfsa import MFSAScheduler
    from repro.library.ncr import datapath_library

    timing = TimingModel(ops=standard_operation_set())
    library = datapath_library()
    report = CheckReport(target=f"{count} random DFGs (seed {seed})")
    for index in range(count):
        dfg = random_dfg(seed=seed + index, n_ops=n_ops)
        cs = critical_path_length(dfg, timing) + (index % 3)
        mfs = MFSScheduler(dfg, timing, cs=cs, mode="time").run()
        sub = check_mfs_result(mfs, differential=differential)
        sub.target = f"random[{index}] MFS (cs={cs})"
        _merge_sub(report, sub)
        mfsa = MFSAScheduler(dfg, timing, library, cs=cs).run()
        sub = check_mfsa_result(mfsa, differential=differential)
        sub.target = f"random[{index}] MFSA (cs={cs})"
        _merge_sub(report, sub)
    return report


def _merge_sub(report: CheckReport, sub: CheckReport) -> None:
    """Merge a sub-report, prefixing violation subjects with its target."""
    for violation in sub.violations:
        report.add(
            violation.code,
            f"{sub.target} :: {violation.subject}",
            violation.message,
        )
    for name in sub.checks_run:
        report.ran(name)
