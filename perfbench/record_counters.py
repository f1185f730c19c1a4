"""Record synth_cold counter sets as the committed drift baseline.

Run from the repository root::

    python3 perfbench/record_counters.py 1 2 3

Each seed's counter pass runs in a fresh process, in the benchmark's
fixed job order, so the counts are the ones ``run.py --workload
synth_cold`` compares against.  Re-record only with a change that is
meant to alter how much work the scheduler does, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path


def _one(seed: int) -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import inputs
    from synth_cold import counter_pass

    _texts, observed = counter_pass(inputs.synth_cold_designs(seed))
    print(json.dumps(observed))


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        _one(int(argv[1]))
        return 0
    from synth_cold import BASELINE

    path = Path.cwd() / BASELINE
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for seed in argv:
        output = subprocess.run(
            [sys.executable, __file__, "--one", seed],
            capture_output=True, text=True, check=True,
        ).stdout
        recorded[str(int(seed))] = json.loads(output.splitlines()[-1])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
