"""MFSA's memoised pricing must equal pricing from scratch.

The scheduler prices candidates through exact memo tables (the
`_AllocationState` operand and mux memos, the process-wide mux-optimiser
memo, the shared per-node frame, the f_REG cache).  Every cache is keyed
on the complete input of a deterministic function, so each recorded
energy must equal the §4.1 definition.  The pricing oracle
(`repro.check.pricing.check_mfsa_pricing`) replays a finished run and
re-prices every recorded alternative with none of those tables:

* all six paper examples, both design styles, with a cold and a warm
  process-wide mux memo (and cold == warm);
* hypothesis-generated random DFGs (seeded generator);
* a deliberately corrupted memo result, which the oracle must catch.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.allocation.mux import clear_mux_memo
from repro.bench.suites import EXAMPLES
from repro.bench.table2 import run_example
from repro.check.pricing import check_mfsa_pricing
from repro.core import mfsa as mfsa_module
from repro.core.mfsa import MFSAScheduler
from repro.dfg.analysis import TimingModel, critical_path_length
from repro.dfg.generators import random_dfg
from repro.dfg.ops import standard_operation_set
from repro.library.ncr import datapath_library

TIMING = TimingModel(ops=standard_operation_set())
LIBRARY = datapath_library()


def assert_equivalent(first, second):
    """Every observable artifact must match between two runs."""
    assert first.schedule.starts == second.schedule.starts
    assert first.placements == second.placements
    assert first.alu_labels() == second.alu_labels()
    assert first.cost == second.cost
    assert (
        first.datapath.register_count() == second.datapath.register_count()
    )
    assert first.datapath.mux_count() == second.datapath.mux_count()
    assert first.datapath.mux_inputs() == second.datapath.mux_inputs()
    assert [e.node for e in first.trajectory.events] == [
        e.node for e in second.trajectory.events
    ]
    assert [e.energy for e in first.trajectory.events] == [
        e.energy for e in second.trajectory.events
    ]
    assert [e.alternatives for e in first.trajectory.events] == [
        e.alternatives for e in second.trajectory.events
    ]


def assert_priced_from_scratch(result):
    violations = check_mfsa_pricing(result)
    assert not violations, "\n".join(str(v) for v in violations[:5])


@pytest.mark.parametrize("key", sorted(EXAMPLES))
@pytest.mark.parametrize("style", [1, 2])
def test_examples_cached_equals_naive(key, style):
    spec = EXAMPLES[key]
    clear_mux_memo()  # cold memo
    cached_cold = run_example(spec, style)
    assert_priced_from_scratch(cached_cold)
    # warm process-wide memo must not change anything either
    cached_warm = run_example(spec, style)
    assert_priced_from_scratch(cached_warm)
    assert_equivalent(cached_warm, cached_cold)


dfg_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=30),      # n_ops
    st.integers(min_value=1, max_value=6),       # n_inputs
    st.integers(min_value=1, max_value=10),      # locality
)

RELAXED = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(params=dfg_params, style=st.sampled_from([1, 2]), slack=st.integers(0, 3))
@RELAXED
def test_random_dfgs_cached_equals_naive(params, style, slack):
    seed, n_ops, n_inputs, locality = params
    g = random_dfg(seed, n_ops=n_ops, n_inputs=n_inputs, locality=locality)
    cs = critical_path_length(g, TIMING) + slack
    result = MFSAScheduler(g, TIMING, LIBRARY, cs=cs, style=style).run()
    assert_priced_from_scratch(result)


def test_oracle_catches_a_corrupted_mux_memo(monkeypatch):
    """One wrong memo answer must surface as a pricing violation."""
    original = mfsa_module.cached_mux_sizes_for_key
    corrupted = []

    def wrong_for_one_key(key, perf=None):
        n1, n2 = original(key, perf=perf)
        if not corrupted and len(key) == 2:
            corrupted.append(key)
            return n1 + 3, n2
        return n1, n2

    monkeypatch.setattr(
        mfsa_module, "cached_mux_sizes_for_key", wrong_for_one_key
    )
    clear_mux_memo()
    result = run_example(EXAMPLES["ex6"], 1)
    assert corrupted, "the corrupted key was never probed"
    violations = check_mfsa_pricing(result)
    assert violations
    assert {v.code for v in violations} == {"pricing.energy-mismatch"}
