"""Every correctness and validity check passes a right output and trips on
a deliberately wrong one."""

import copy
import dataclasses

import pytest

from perfbench import checks, inputs, stream
from repro.core.config import SieveConfig
from repro.core.pipeline import SievePipeline

PAPER = {"sieve_avg": 0.0034, "sieve_max": 0.0131, "pks_avg": 0.1238, "pks_max": 0.3659}


def test_fig3_paper_scale_must_equal_experiments_md():
    assert checks.check_fig3(PAPER, paper_scale=True) == []
    wrong = dict(PAPER, pks_max=0.3700)
    assert checks.check_fig3(wrong, paper_scale=True)


def test_fig3_other_seeds_must_keep_the_shape():
    assert checks.check_fig3(PAPER, paper_scale=False) == []
    assert checks.check_fig3(dict(PAPER, sieve_avg=0.06), paper_scale=False)
    assert checks.check_fig3(dict(PAPER, pks_avg=0.009), paper_scale=False)
    assert checks.check_fig3(dict(PAPER, pks_max=0.09), paper_scale=False)


BODY = {
    "kind": "select",
    "method": "sieve",
    "workload": "cactus/gru",
    "result": {"num_representatives": 3},
    "pickle_sha256": "ab" * 32,
    "request_id": "req-000001",
    "telemetry": {"from_cache": False},
}


def test_responses_must_all_be_2xx():
    assert checks.check_responses([(200, BODY), (200, BODY)]) == []
    assert checks.check_responses([(200, BODY), (500, BODY)])
    assert checks.check_responses([(200, None)])


def test_served_body_must_equal_the_in_process_evaluation():
    cached = dict(BODY, request_id="req-000009", telemetry={"from_cache": True})
    assert checks.check_reevaluated(cached, BODY) == []
    wrong = copy.deepcopy(BODY)
    wrong["result"]["num_representatives"] = 4
    assert checks.check_reevaluated(wrong, BODY)
    assert checks.check_reevaluated(dict(BODY, pickle_sha256="cd" * 32), BODY)


def test_warm_bodies_must_equal_their_cold_bodies():
    cold = {0: BODY, 1: dict(BODY, workload="cactus/gst")}
    assert checks.check_warm_bodies([(0, BODY), (1, cold[1])], cold) == []
    assert checks.check_warm_bodies([(1, BODY)], cold)


def test_cold_validity_rejects_coalesced_or_cached_requests():
    clean = {"dispatcher.coalesced": 0.0, "cache.hits": 0.0}
    assert checks.cold_validity(clean) == []
    assert checks.cold_validity(dict(clean, **{"dispatcher.coalesced": 1.0}))
    assert checks.cold_validity(dict(clean, **{"cache.hits": 2.0}))


def test_warm_validity_rejects_misses_and_backlog():
    assert checks.warm_validity(1.0, 0.02, 1.0) == []
    assert checks.warm_validity(0.99, 0.02, 1.0)
    assert checks.warm_validity(1.0, 2.5, 1.0)


@pytest.fixture(scope="module")
def small_feed():
    return inputs.stream_feed(11, rows=30_000)


def test_streamed_picks_must_equal_the_batch_picks(small_feed):
    streamed = stream.one_pass(small_feed)
    batch = SievePipeline(SieveConfig()).select(small_feed)
    assert checks.check_stream(streamed, batch) == []
    wrong = dataclasses.replace(
        streamed, representatives=streamed.representatives[:-1]
    )
    assert checks.check_stream(wrong, batch)
    moved = dataclasses.replace(
        streamed,
        representatives=(
            dataclasses.replace(streamed.representatives[0], invocation_id=-1),
            *streamed.representatives[1:],
        ),
    )
    assert checks.check_stream(moved, batch)
