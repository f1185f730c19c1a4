"""One fresh compiler process: import, then compile one design.

Usage: ``python3 coldstart.py <checkout root> <design body JSON file>``.
synth_cold times this from launch to exit as its set-up sample; exit 0
only when the job succeeded.
"""

import json
import sys


def main() -> int:
    root, body_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, f"{root}/src")
    from repro.serve.jobs import execute_spec, normalize_spec

    with open(body_path, encoding="utf-8") as handle:
        request = json.load(handle)
    payload, _perf = execute_spec(
        normalize_spec(request["algorithm"], request["body"])
    )
    return 0 if payload.get("ok") else 1


if __name__ == "__main__":
    sys.exit(main())
