"""Cache-key stability and single-parse admission.

Cache keys address journal records and cached results across restarts,
so a silent change would orphan both.  The golden ``(cache_key,
fingerprint)`` pairs below were recorded with the earlier admission
path, which decoded each design twice; any change that moves one of
them must bump ``SPEC_VERSION`` on purpose.

:func:`~repro.serve.jobs.admit_spec` builds the spec, key and
fingerprint from one decode of the request body.  Journal recovery and
pool workers rebuild the key from the spec's ``dfg_json`` instead
(:func:`~repro.serve.jobs.key_and_fingerprint`); both paths must agree.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.library.ncr as ncr
from repro.bench.suites import ewf
from repro.io.jsonio import dfg_to_json
from repro.scenarios.generator import (
    GeneratorSpec,
    generate_dfg,
    parse_generator_spec,
)
from repro.serve import jobs
from repro.serve.jobs import admit_spec, key_and_fingerprint, normalize_spec

SRC = """input a b c d
t1 = a + b
t2 = t1 * c
x = t2 - d
output x
"""


def _dfg_obj(dfg):
    return json.loads(dfg_to_json(dfg, indent=None))


GOLDEN = {
    "ewf-mfs": (
        "mfs",
        lambda: {"dfg": _dfg_obj(ewf()), "cs": 17},
        "2addc4ba64bcbabf98f3ded0d718d5bb37616d984aef94534945d8c9bbe54053",
        "c3bf666762a07d59c492047c35a36364fa845ec4c7f3333285eaf1c50636dc62",
    ),
    "ewf-mfsa": (
        "mfsa",
        lambda: {"dfg": _dfg_obj(ewf()), "cs": 17},
        "5a7e9887b81efa3dade85e6bca9ae7a40ffd44c9d1213229e9f6dd44e02a2dbc",
        "c3bf666762a07d59c492047c35a36364fa845ec4c7f3333285eaf1c50636dc62",
    ),
    "source-mfs": (
        "mfs",
        lambda: {"source": SRC, "cs": 6},
        "9f7bb7ba91e6322209937b242e522f344b6313cddfeeda809e1deeb7e91f6ad1",
        "140f0cbc12eba4ec90600db231e437a28c39e3cafc07eda9545d144d8dd6ffcb",
    ),
    "generated-mfsa": (
        "mfsa",
        lambda: {
            "dfg": _dfg_obj(
                generate_dfg(
                    parse_generator_spec("random:ops=24:inputs=4:cond=1"),
                    seed=7,
                )
            ),
            "mul_latency": 2,
            "style": 2,
        },
        "7ede7b0fbbab5f7cc9e253561674fb4b578906c843502a92d30f2d354009958d",
        "afebe4af6f0b45d2ebc8ac789ecde2166e17e58ef1f94aa987bc59c0bd58554f",
    ),
}


class TestGoldenKeys:
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_key_and_fingerprint_are_pinned(self, case):
        algorithm, body, key, fingerprint = GOLDEN[case]
        assert admit_spec(algorithm, body())[1:] == (key, fingerprint)
        spec = normalize_spec(algorithm, body())
        assert key_and_fingerprint(spec) == (key, fingerprint)


class TestSingleParse:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.integers(min_value=1, max_value=30),
        cond=st.integers(min_value=0, max_value=2),
        mul_latency=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        algorithm=st.sampled_from(jobs.ALGORITHMS),
        verify=st.booleans(),
        params=st.fixed_dictionaries(
            {},
            optional={
                "cs": st.integers(min_value=1, max_value=40),
                "style": st.sampled_from([1, 2]),
                "clock_ns": st.sampled_from([20.0, 40]),
                "pipelined": st.sampled_from([["mul"], "mul,add"]),
                "seed": st.integers(min_value=-5, max_value=5),
            },
        ),
    )
    def test_admission_equals_the_re_decoded_spec(
        self, ops, cond, mul_latency, seed, algorithm, verify, params
    ):
        dfg = generate_dfg(
            GeneratorSpec(n_ops=ops, conditions=cond, mul_latency=mul_latency),
            seed=seed,
        )
        body = {"dfg": _dfg_obj(dfg), "mul_latency": mul_latency, **params}
        try:
            spec, key, fingerprint = admit_spec(algorithm, body, verify=verify)
        except jobs.JobSpecError as error:
            # A clock some single-cycle operation cannot fit is rejected
            # at admission, with the same message on both paths.
            assert str(error).startswith("'clock_ns' too short")
            with pytest.raises(jobs.JobSpecError, match="clock_ns"):
                normalize_spec(algorithm, body, verify=verify)
            return
        assert spec == normalize_spec(algorithm, body, verify=verify)
        assert (key, fingerprint) == key_and_fingerprint(spec)


class TestLibraryDigest:
    def test_library_is_fingerprinted_once_per_process(self, monkeypatch):
        built = []
        original = ncr.datapath_library

        def counting():
            built.append(1)
            return original()

        monkeypatch.setattr(ncr, "datapath_library", counting)
        jobs._mfsa_library_digest.cache_clear()
        try:
            admit_spec("mfsa", {"source": SRC})
            admit_spec("mfsa", {"source": SRC, "cs": 7})
            assert len(built) == 1
        finally:
            jobs._mfsa_library_digest.cache_clear()
