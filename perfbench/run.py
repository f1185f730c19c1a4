"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload synth_cold --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded around each layer call and prints the
per-layer metrics instead.  The last line of standard output is the
result, ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full report (run context, service configuration,
sample counts, counter drift).  Both are also written, with the spans
of a traced run, under ``.perfbench_out/`` in the repository root.

See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from catalog import END_TO_END, FLEET_WORKLOAD, PER_LAYER, WORKLOADS
from common import Ctx
from context import cpu_ticks, host_ref_ms, run_context, steal_frac

OUT_DIR = ".perfbench_out"


def _import_program(root: Path) -> None:
    """Import ``repro`` from ``<root>/src`` and nowhere else."""
    source = root / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program under {source}; run from the repository root"
        )
    sys.path.insert(0, str(source))
    import repro

    if Path(repro.__file__).resolve().parent != (source / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")


def _metrics(outcome, trace: bool):
    """The metric block of the result line, checked against the catalogue."""
    if trace:
        # Layers a workload does not touch read 0 and are listed.
        not_on_path = sorted(set(PER_LAYER) - set(outcome.layers))
        values = {name: outcome.layers.get(name, 0.0) for name in PER_LAYER}
        units = {name: unit for name, (unit, _better) in PER_LAYER.items()}
        outcome.report["not_on_path"] = not_on_path
    else:
        missing = sorted(set(END_TO_END) - set(outcome.e2e))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
        values = outcome.e2e
        units = {name: unit for name, (unit, _better) in END_TO_END.items()}
    extra = sorted(set(values) - set(units))
    if extra:
        raise RuntimeError(f"metrics outside the catalogue: {extra}")
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + (FLEET_WORKLOAD,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    _import_program(root)
    out = root / OUT_DIR
    out.mkdir(exist_ok=True)
    ctx = Ctx(root, out, args.workload, args.seed, args.seconds,
              bool(args.trace))
    context = run_context(root)
    ticks = cpu_ticks()
    outcome = importlib.import_module(args.workload).run(ctx)
    context["steal_frac"] = steal_frac(ticks, cpu_ticks())
    context["host_ref_ms_end"] = host_ref_ms()
    metrics = _metrics(outcome, ctx.trace)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": ctx.trace,
        "context": context,
        "problems": outcome.problems,
        **outcome.report,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(
        json.dumps({"report": report, "result": result}, indent=1))
    if ctx.trace:
        ctx.spans.write(out / f"{stem}.spans.jsonl")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
