"""Unit tests for the serve building blocks (no HTTP, no threads)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.dfg.parser import parse_behavior
from repro.io.jsonio import dfg_to_json
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    JobSpecError,
    cache_key,
    execute_spec,
    normalize_spec,
    response_text,
)
from repro.serve.metrics import Metrics
from repro.serve.queue import Job, JobQueue, JobTimeout, QueueFull

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""


def _spec(**overrides):
    body = {"source": SRC}
    body.update(overrides.pop("body", {}))
    return normalize_spec(
        overrides.pop("algorithm", "mfs"), body, **overrides
    )


class TestSpecs:
    def test_normalize_rejects_unknown_algorithm(self):
        with pytest.raises(JobSpecError):
            normalize_spec("alap", {"source": SRC})

    def test_normalize_rejects_missing_design(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {})

    def test_normalize_rejects_both_designs(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "dfg": {}})

    def test_normalize_rejects_bad_source(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": "t1 :="})

    def test_normalize_rejects_bad_numbers(self):
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "cs": "six"})
        with pytest.raises(JobSpecError):
            normalize_spec("mfs", {"source": SRC, "cs": 0})

    def test_clock_check_raises_only_spec_errors(self):
        """An operation kind the standard set does not know is no input
        to the clock check: with a clock, admission may reject the body
        (400) but never fail with another error (a 500)."""
        dfg = json.loads(dfg_to_json(parse_behavior(SRC, name="unknown")))
        for node in dfg["nodes"]:
            node["kind"] = "frobnicate"
        try:
            normalize_spec("mfs", {"dfg": dfg, "clock_ns": 5})
        except JobSpecError:
            pass

    def test_cache_key_ignores_parameter_spelling(self):
        assert cache_key(_spec(body={"cs": 4})) == cache_key(
            _spec(body={"cs": 4, "pipelined": []})
        )
        canonical = _spec(body={"cs": 8, "style": 2, "seed": 3, "clock_ns": 40})
        for spelling in (
            {"cs": 8.0, "style": "2", "seed": 3.0, "clock_ns": "40"},
            {"cs": " 8 ", "style": 2.0, "seed": "3", "clock_ns": 40.0},
        ):
            assert _spec(body=spelling) == canonical

    def test_cache_key_separates_parameters(self):
        baseline = cache_key(_spec())
        assert cache_key(_spec(body={"cs": 7})) != baseline
        assert cache_key(_spec(verify=True)) != baseline
        assert cache_key(_spec(trace=True)) != baseline
        assert cache_key(_spec(algorithm="mfsa")) != baseline
        assert cache_key(_spec(body={"seed": 1})) != baseline

    def test_cache_key_separates_design_names(self):
        # The structural fingerprint erases the name, but the name is in
        # the response bytes — so it must be part of the key.
        named = _spec(body={"name": "other"})
        assert cache_key(named) != cache_key(_spec())

    def test_execute_spec_mfs_roundtrip(self):
        payload, snapshot = execute_spec(_spec())
        assert payload["ok"] is True
        assert payload["algorithm"] == "mfs"
        assert payload["result"]["cs"] >= 1
        assert isinstance(snapshot, dict)

    def test_execute_spec_returns_failures(self):
        payload, _snapshot = execute_spec(_spec(body={"cs": 1}))
        assert payload["ok"] is False
        assert payload["error"]["type"]

    def test_response_text_is_canonical(self):
        payload = {"ok": True, "z": 1, "a": 2}
        text = response_text(payload)
        assert text == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert json.loads(text) == payload


class TestResultCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", "A")
        cache.put("b", "B")
        assert cache.get("a") == "A"  # refreshes recency
        cache.put("c", "C")  # evicts b (LRU)
        assert cache.peek("b") is None
        assert cache.peek("a") == "A"
        assert cache.evictions == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate() == 0.5

    def test_metrics_wiring(self):
        metrics = Metrics()
        cache = ResultCache(max_entries=1, metrics=metrics)
        cache.get("x")
        cache.put("x", "X")
        cache.get("x")
        cache.put("y", "Y")
        assert metrics.counter_value("cache_misses") == 1
        assert metrics.counter_value("cache_hits") == 1
        assert metrics.counter_value("cache_evictions") == 1

    def test_fingerprint_tags_follow_entries(self):
        """Tags ride along for ring placement: readable, listed in LRU
        order, and dropped with their entry on eviction or clear."""
        cache = ResultCache(max_entries=2)
        cache.put("k1", "T1", tag="fp1")
        cache.put("k2", "T2")  # untagged entries stay anonymous
        assert cache.tag("k1") == "fp1"
        assert cache.tag("k2") is None
        assert cache.tag("missing") is None
        assert list(cache.tagged_entries()) == [("k1", "fp1", "T1")]
        cache.put("k3", "T3", tag="fp3")  # evicts k1 (LRU)
        assert cache.peek("k1") is None
        assert cache.tag("k1") is None
        assert list(cache.tagged_entries()) == [("k3", "fp3", "T3")]
        cache.put("k3", "T3", tag="fp3b")  # re-put refreshes the tag
        assert cache.tag("k3") == "fp3b"
        cache.clear()
        assert list(cache.tagged_entries()) == []


class TestJobQueue:
    def _run(self, coro):
        return asyncio.run(coro)

    def test_put_raises_queue_full_with_hint(self):
        async def scenario():
            queue = JobQueue(maxsize=1)
            queue.put(Job({}, "k1"))
            with pytest.raises(QueueFull) as exc:
                queue.put(Job({}, "k2"), retry_after=2.5)
            assert exc.value.retry_after == 2.5
            assert exc.value.maxsize == 1

        self._run(scenario())

    def test_dead_jobs_are_skipped_and_free_capacity(self):
        async def scenario():
            queue = JobQueue(maxsize=1)
            dead = Job({}, "k1", timeout_s=0.0)
            queue.put(dead)
            dead.mark_timeout()
            # The slot is free again: depth counts live jobs only.
            live = Job({}, "k2")
            queue.put(live)
            assert queue.depth() == 1
            assert queue.get_nowait() is live
            with pytest.raises(JobTimeout):
                await dead.future

        self._run(scenario())

    def test_finish_is_idempotent_after_timeout(self):
        async def scenario():
            job = Job({}, "k", timeout_s=0.0)
            job.mark_timeout()
            job.finish(True, "late result")  # batch landed too late
            assert job.status == "timeout"
            with pytest.raises(JobTimeout):
                await job.future

        self._run(scenario())

    def test_follower_mirrors_leader(self):
        async def scenario():
            leader = Job({}, "k")
            follower = Job({}, "k")
            follower.follow(leader)
            leader.finish(True, "text")
            await asyncio.sleep(0)  # let callbacks run
            assert await follower.future == "text"
            assert follower.cache == "follower"
            assert follower.response_text == "text"

        self._run(scenario())


class TestMetricsRender:
    def test_prometheus_exposition_shapes(self):
        metrics = Metrics()
        metrics.describe("jobs", "Jobs by status.")
        metrics.incr("jobs", status="done")
        metrics.incr("jobs", 2, status="failed")
        metrics.observe("batch_size", 3)
        metrics.observe("batch_size", 5)
        metrics.gauge("queue_depth", lambda: 7)
        text = metrics.render()
        assert '# HELP repro_serve_jobs_total Jobs by status.' in text
        assert 'repro_serve_jobs_total{status="done"} 1' in text
        assert 'repro_serve_jobs_total{status="failed"} 2' in text
        assert "repro_serve_batch_size_sum 8" in text
        assert "repro_serve_batch_size_count 2" in text
        assert "repro_serve_queue_depth 7" in text

    def test_labelled_gauges_render_one_series_per_labelset(self):
        """The router's per-shard backoff gauge: one callable per
        labelset under a single metric name, removable when the shard
        leaves the fleet."""
        metrics = Metrics()
        values = {"shard-0": 0.25, "shard-1": 1.5}
        for name, value in values.items():
            metrics.gauge(
                "respawn_backoff_seconds",
                lambda v=value: v,
                target=name,
            )
        text = metrics.render()
        assert (
            'repro_serve_respawn_backoff_seconds{target="shard-0"} 0.25'
            in text
        )
        assert (
            'repro_serve_respawn_backoff_seconds{target="shard-1"} 1.5'
            in text
        )
        metrics.remove_gauge("respawn_backoff_seconds", target="shard-0")
        text = metrics.render()
        assert 'target="shard-0"' not in text
        assert 'target="shard-1"' in text
        # Removing the last labelset removes the series entirely.
        metrics.remove_gauge("respawn_backoff_seconds", target="shard-1")
        assert "respawn_backoff_seconds" not in metrics.render()
        # Removing an unknown gauge is a harmless no-op.
        metrics.remove_gauge("respawn_backoff_seconds", target="ghost")

    def test_perf_counters_are_exported(self):
        from repro.perf import PerfCounters

        perf = PerfCounters()
        perf.incr("sweep.serial_fallbacks")
        perf.incr("sweep.fallback.worker-crash")
        text = Metrics().render(perf)
        assert (
            'repro_perf_counter_total{name="sweep.serial_fallbacks"} 1'
            in text
        )
        assert (
            'repro_perf_counter_total{name="sweep.fallback.worker-crash"} 1'
            in text
        )


class TestAdaptiveBatchPolicy:
    def _policy(self, **kw):
        from repro.serve.batcher import AdaptiveBatchPolicy

        return AdaptiveBatchPolicy(8, **kw)

    def test_first_batch_uses_configured_maximum(self):
        assert self._policy().batch_limit() == 8

    def test_cheap_jobs_coalesce_to_the_cap(self):
        policy = self._policy(target_batch_seconds=0.25)
        policy.observe(0.001)  # 1 ms jobs: 250 would fit, cap at 8
        assert policy.batch_limit() == 8

    def test_expensive_jobs_dispatch_immediately(self):
        policy = self._policy(target_batch_seconds=0.25)
        policy.observe(2.0)
        assert policy.batch_limit() == 1

    def test_intermediate_costs_fill_the_target(self):
        policy = self._policy(target_batch_seconds=0.25)
        policy.observe(0.1)  # 0.25 / 0.1 -> 2 jobs per batch
        assert policy.batch_limit() == 2

    def test_ewma_update(self):
        policy = self._policy(alpha=0.5)
        policy.observe(1.0)
        policy.observe(0.0)
        assert policy.cost_ewma == pytest.approx(0.5)
        policy.observe(0.5)
        assert policy.cost_ewma == pytest.approx(0.5)

    def test_negative_observations_are_ignored(self):
        policy = self._policy()
        policy.observe(-1.0)
        assert policy.cost_ewma is None

    def test_validation(self):
        from repro.serve.batcher import AdaptiveBatchPolicy

        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(8, target_batch_seconds=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(8, alpha=0.0)
        with pytest.raises(ValueError):
            AdaptiveBatchPolicy(8, alpha=1.5)

    def test_batcher_registers_policy_gauges(self):
        from repro.serve.batcher import MicroBatcher

        metrics = Metrics()
        batcher = MicroBatcher(
            JobQueue(4),
            resolve=lambda job, payload, text: None,
            adaptive=True,
            metrics=metrics,
        )
        assert batcher.policy is not None
        batcher.policy.observe(0.5)
        text = metrics.render()
        assert "repro_serve_adaptive_batch_limit 1" in text
        assert "repro_serve_job_cost_ewma_seconds 0.5" in text

    def test_batcher_without_adaptive_has_no_policy(self):
        from repro.serve.batcher import MicroBatcher

        batcher = MicroBatcher(
            JobQueue(4), resolve=lambda job, payload, text: None
        )
        assert batcher.policy is None
