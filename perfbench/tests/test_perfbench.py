"""Tests of the benchmark's own logic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import catalog
import counters
import inputs
import reference
import stats
from conftest import BENCH, ROOT


# -- percentiles -------------------------------------------------------
def test_percentile_needs_ten_samples_beyond():
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(range(1000), 99.5)
    with pytest.raises(stats.InsufficientSamples):
        stats.percentile(range(999), 99)
    value, beyond = stats.percentile(range(1, 1001), 99)
    assert (value, beyond) == (990, 10)


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3] * 5
    assert stats.percentile(values, 50)[0] == 3
    assert stats.p50(range(1, 22)) == 11


def test_latency_summary_reports_sample_counts():
    summary = stats.latency_summary([i / 1000 for i in range(1, 1101)])
    assert summary["samples"] == 1100
    assert summary["beyond_p99"] == 11
    assert summary["p99_ms"] == pytest.approx(1089.0)


# -- seeded inputs -----------------------------------------------------
def _digest(designs):
    digest = hashlib.sha256()
    for design in designs:
        digest.update(design.algorithm.encode())
        digest.update(design.body_bytes())
    return digest.hexdigest()


def test_same_seed_gives_same_input_bytes():
    assert _digest(inputs.synth_cold_designs(7)) == _digest(
        inputs.synth_cold_designs(7))
    assert _digest(inputs.synth_cold_designs(7)) != _digest(
        inputs.synth_cold_designs(8))
    assert _digest(inputs.serve_hit_designs(3)) == _digest(
        inputs.serve_hit_designs(3))
    first = inputs.fleet_plan(4, 5.0, 40.0, 0.7, 8, 20)
    second = inputs.fleet_plan(4, 5.0, 40.0, 0.7, 8, 20)
    assert first[1] == second[1]
    assert _digest(first[0]) == _digest(second[0])


def test_input_bytes_do_not_depend_on_the_hash_seed():
    script = (
        "import hashlib, sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
        "import inputs; h = hashlib.sha256(); "
        "[h.update(d.body_bytes()) for d in inputs.synth_cold_designs(11)]; "
        "print(h.hexdigest())"
    )
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        digests.add(subprocess.run(
            [sys.executable, "-c", script, str(ROOT / "src"), str(BENCH)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip())
    assert len(digests) == 1


def test_synth_cold_sizes_are_the_same_for_every_seed():
    sizes = sorted(d.n_ops for d in inputs.synth_cold_designs(1))
    assert sizes == sorted(d.n_ops for d in inputs.synth_cold_designs(2))
    assert min(sizes) < 48 <= max(sizes)  # straddles VECTOR_MIN_OPS


def test_fleet_resubmissions_come_after_their_first_send():
    designs, arrivals = inputs.fleet_plan(2, 10.0, 40.0, 0.7, 8, 20)
    first_sent = {}
    for index, arrival in enumerate(arrivals):
        if arrival.fresh:
            first_sent[arrival.design] = index
        elif arrival.design >= 8:
            assert index - first_sent[arrival.design] >= 20
    assert len(designs) == 8 + sum(a.fresh for a in arrivals)


# -- counter drift -----------------------------------------------------
def test_counter_diff_lists_every_changed_counter():
    recorded = {"mfsa.operand_cache_hits": 388, "mfs.frames_computed": 10}
    observed = {"mfsa.operand_cache_hits": 107, "mfs.frames_computed": 10,
                "mux.canon_hits": 3}
    assert counters.diff(recorded, observed) == [
        ("mfsa.operand_cache_hits", 388, 107),
        ("mux.canon_hits", 0, 3),
    ]
    text = counters.render_diff(counters.diff(recorded, observed), "run")
    assert "388 -> 107" in text and "(-281)" in text
    assert counters.diff(recorded, dict(recorded)) == []


def test_counter_set_keeps_scheduler_counters_only():
    snapshots = [
        {"counters": {"mfsa.frames_computed": 2, "sweep.tasks": 1}},
        {"counters": {"mfsa.frames_computed": 3, "mux.canon_hits": 1}},
    ]
    assert counters.counter_set(snapshots) == {
        "mfsa.frames_computed": 5, "mux.canon_hits": 1}


def test_drift_report_prefers_the_baseline_then_the_last_run(tmp_path):
    baseline = tmp_path / "baseline.json"
    last = tmp_path / "out" / "last.json"
    source, rows = counters.drift_report(1, {"a": 1}, baseline, last)
    assert (source, rows) == (None, [])
    source, rows = counters.drift_report(1, {"a": 2}, baseline, last)
    assert source.startswith("last run") and rows == [("a", 1, 2)]
    baseline.write_text(json.dumps({"1": {"a": 2}}))
    source, rows = counters.drift_report(1, {"a": 2}, baseline, last)
    assert source.startswith("baseline") and rows == []


# -- reference check ---------------------------------------------------
@pytest.fixture(scope="module")
def served():
    """A real response of the service for one paper example."""
    from repro.serve import ServeApp
    import wire

    design = inputs.paper_examples()[2]
    from audit import references

    texts, _snapshots, _walls = references([design])
    app = ServeApp(port=0, backend="serial")
    handle = app.start_in_thread()
    try:
        first = wire.roundtrip(handle.port, design.request_bytes(handle.port))
        second = wire.roundtrip(handle.port, design.request_bytes(handle.port))
    finally:
        handle.stop()
    return reference.expected_tail(texts[0]), first, second


def test_reference_check_accepts_real_responses(served):
    tail, (status, body), (status2, body2) = served
    failure, job = reference.check_response(status, body, tail, "miss")
    assert failure is None and job["status"] == "done"
    failure, job = reference.check_response(status2, body2, tail, "hit")
    assert failure is None and job["cache"] == "hit"


def test_reference_check_catches_a_corrupted_response(served):
    tail, (status, body), _second = served
    index = body.rindex(b'"cs": ') + len(b'"cs": ')
    corrupted = body[:index] + (b"9" if body[index:index + 1] != b"9" else b"8") + body[index + 1:]
    assert reference.check_response(status, corrupted, tail)[0] == (
        "result differs from the one-shot reference")
    assert reference.check_response(500, body, tail)[0].startswith("HTTP 500")
    assert reference.check_response(status, body, tail, "hit")[0].startswith(
        "expected cache hit")


# -- catalogue ---------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(catalog.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == catalog.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == catalog.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_counter_baseline_covers_the_held_out_seed():
    from synth_cold import BASELINE

    recorded = json.loads((ROOT / BASELINE).read_text())
    assert str(catalog.HELD_OUT_SEED) in recorded
    assert all(counts.get("mfsa.frames_computed") for counts in recorded.values())
