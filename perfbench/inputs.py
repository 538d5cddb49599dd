"""Seeded inputs of the four workloads.

Everything a run feeds the program comes from here and depends only on
the seed. :data:`DEFAULT_SEED` runs the catalog's Table I specs as they
are; any other seed renames every spec, because the workload generator
seeds itself from suite and name, so a new name is a new workload of the
same shape. The service schedules and the stream feed are drawn from the
seed directly.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.evaluation.engine import EvaluationTask
from repro.evaluation.experiments import ExperimentSpec, comparison_spec
from repro.profiling.table import ProfileTable
from repro.service import protocol
from repro.workloads.catalog import CHALLENGING_SUITES, specs_for_suites

DEFAULT_SEED = 0

#: Methods the service schedules ask for.
SERVICE_METHODS = ("sieve", "pks", "periodic", "random")
#: Every service request gets its own cap from this range, so no two
#: requests share a task (a cache key).
CAP_RANGE = (200, 2000)
#: Length of the cold schedule; a run stops taking requests when its time
#: is spent, long before the end.
COLD_REQUESTS = 1024
#: Tasks the warm replay draws from (all pre-filled in set-up): one per
#: (workload, method) pair, each asked on both routes.
WARM_TASKS = 64
#: Offered rate of the warm open loop, well under warm capacity.
WARM_RATE_PER_S = 30.0

#: Shape of the stream feed: dense tier-1/2 kernels carry the bulk, and
#: every RARE_STRIDE-th row goes to one of a few rare bimodal tier-3
#: kernels, which stay under the reservoir so their splits are exact.
STREAM_ROWS = 1_000_000
STREAM_CHUNK_ROWS = 8192
STREAM_RESERVOIR_ROWS = 4096
DENSE_KERNELS = 60
RARE_KERNELS = 4
RARE_STRIDE = 251


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, *tag.encode()])


def table1_labels() -> tuple[str, ...]:
    """The 16 Cactus + MLPerf workloads of the Figure 3 comparison."""
    return tuple(spec.label for spec in specs_for_suites(CHALLENGING_SUITES))


def fig3_work(seed: int) -> list[ExperimentSpec | EvaluationTask]:
    """One unit of Figure 3 work per Table I workload, in catalog order.

    At the default seed each unit is the paper's Sieve-vs-PKS
    :class:`ExperimentSpec` for one catalog label; at any other seed it is
    the same comparison as an :class:`EvaluationTask` over a renamed
    inline spec.
    """
    labels = table1_labels()
    if seed == DEFAULT_SEED:
        return [comparison_spec("paper_fig3", (label,)) for label in labels]
    methods = comparison_spec("paper_fig3", labels).methods
    work = []
    for spec in specs_for_suites(CHALLENGING_SUITES):
        renamed = dataclasses.replace(spec, name=f"{spec.name}-s{seed}")
        work.append(EvaluationTask(label=renamed.label, spec=renamed, methods=methods))
    return work


def _request(predict: int, label: str, method: str, cap: int) -> dict:
    route = protocol.PREDICT_ROUTE if predict else protocol.SELECT_ROUTE
    return {
        "route": route,
        "payload": {"workload": label, "method": method, "cap": int(cap)},
    }


def unique_requests(seed: int, count: int, tag: str) -> list[dict]:
    """``count`` service requests, each with its own cap (so its own task).

    Requests come in blocks of 64 that ask for every (workload, method)
    pair once, in 4 rounds of 16. Each round asks for every workload once,
    for every method 4 times, on each route 8 times, and with caps from 16
    equal strata of :data:`CAP_RANGE`. So any stretch of the schedule
    carries nearly the same mix, and the seed changes the order, which
    pair gets which route, and the exact caps.
    """
    low, high = CAP_RANGE
    labels, methods = table1_labels(), SERVICE_METHODS
    per_block = len(labels) * len(methods)
    rounds = per_block // len(labels)
    width = (high - low + 1) // per_block
    blocks = -(-count // per_block)
    if blocks > width:
        raise ValueError(f"at most {width * per_block} unique requests, asked {count}")
    rng = _rng(seed, tag)
    # offsets[slice, block]: where a block's cap sits inside one of the
    # per_block slices of the range; distinct across blocks, so no cap repeats.
    offsets = np.stack([rng.permutation(width) for _ in range(per_block)])
    requests = []
    for block in range(blocks):
        workload_order = rng.permutation(len(labels))
        strata = rng.permutation(len(labels))
        shifts = rng.integers(0, rounds, len(labels))
        for turn in range(rounds):
            routes = rng.permutation(np.arange(len(labels)) % 2)
            for k in range(len(labels)):
                method = methods[(k + turn) % len(methods)]
                cap_slice = rounds * strata[k] + (turn + shifts[k]) % rounds
                cap = low + cap_slice * width + offsets[cap_slice, block]
                requests.append(_request(routes[k], labels[workload_order[k]], method, cap))
    return requests[:count]


def cold_schedule(seed: int) -> list[dict]:
    """The cold closed loop's requests, in send order (more than a run uses)."""
    return unique_requests(seed, COLD_REQUESTS, "cold")


def warm_schedule(seed: int, seconds: float) -> tuple[list[dict], list[tuple[float, int]]]:
    """The warm replay: its distinct requests and an open-loop schedule.

    The distinct requests are one block of :func:`unique_requests`, each
    asked on both routes, so every seed replays the same mix of bodies.
    The schedule is a Poisson process at :data:`WARM_RATE_PER_S`,
    conditioned on its count: ``rate * seconds`` arrivals spread uniformly
    over the window. Each entry is ``(due offset in s, distinct index)``.
    """
    distinct = [
        {"route": route, "payload": request["payload"]}
        for request in unique_requests(seed, WARM_TASKS, "warm")
        for route in (protocol.PREDICT_ROUTE, protocol.SELECT_ROUTE)
    ]
    rng = _rng(seed, "warm-arrivals")
    count = max(1, int(round(WARM_RATE_PER_S * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, count))
    picks = rng.integers(0, len(distinct), count)
    return distinct, [(float(t), int(i)) for t, i in zip(due, picks)]


def stream_feed(seed: int, rows: int = STREAM_ROWS) -> ProfileTable:
    """The 1M-row feed: 60 tier-1/2 kernels plus 4 rare bimodal tier-3 ones."""
    rng = _rng(seed, "stream")
    kernel_id = rng.integers(0, DENSE_KERNELS, rows).astype(np.int32)
    rare_rows = np.arange(0, rows, RARE_STRIDE)
    kernel_id[rare_rows] = DENSE_KERNELS + (rare_rows // RARE_STRIDE) % RARE_KERNELS

    # Even dense kernels are tier-1 (one count), odd ones tier-2 (a few
    # percent of jitter, far under the theta=0.4 split).
    base = 50_000 + 1_500 * rng.permutation(DENSE_KERNELS).astype(np.int64)
    insn = base[np.minimum(kernel_id, DENSE_KERNELS - 1)]
    odd = np.flatnonzero((kernel_id < DENSE_KERNELS) & (kernel_id % 2 == 1))
    insn[odd] += rng.integers(-500, 501, len(odd))
    # Rare kernels: two well-separated modes, so the KDE split fires.
    for k in range(RARE_KERNELS):
        members = np.flatnonzero(kernel_id == DENSE_KERNELS + k)
        low = rng.normal(10_000, 400, len(members))
        high = rng.normal(120_000, 3_000, len(members))
        insn[members] = np.where(rng.random(len(members)) < 0.5, high, low)
    insn = np.maximum(insn, 1)

    # Within a kernel, invocation ids count arrivals.
    order = np.argsort(kernel_id, kind="stable")
    counts = np.bincount(kernel_id, minlength=DENSE_KERNELS + RARE_KERNELS)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    invocation_id = np.empty(rows, dtype=np.int64)
    invocation_id[order] = np.arange(rows) - np.repeat(first, counts)

    kernels = DENSE_KERNELS + RARE_KERNELS
    return ProfileTable(
        workload=f"stream-1m-s{seed}",
        kernel_names=tuple(f"stream_k{k:03d}" for k in range(kernels)),
        kernel_id=kernel_id,
        invocation_id=invocation_id,
        insn_count=insn,
        cta_size=(128 + 32 * (kernel_id % 8)).astype(np.int32),
        num_ctas=rng.integers(1, 2048, rows).astype(np.int64),
    )
