"""Correctness and validity checks. Each returns a list of problems (empty
when the output is right), so a run can count every failure."""

from __future__ import annotations

import numpy as np

#: Figure 3 aggregates of EXPERIMENTS.md, in percent, at the precision
#: printed there: (sieve avg, sieve max, pks avg, pks max).
EXPERIMENTS_FIG3 = ((0.34, 2), (1.31, 2), (12.4, 1), (36.6, 1))


def fig3_aggregates(rows: list[dict]) -> dict[str, float]:
    """Mean and max error per method over the rows (``{"sieve": MethodResult, ...}``)."""
    sieve = [row["sieve"].error for row in rows]
    pks = [row["pks"].error for row in rows]
    return {
        "sieve_avg": float(np.mean(sieve)),
        "sieve_max": float(np.max(sieve)),
        "pks_avg": float(np.mean(pks)),
        "pks_max": float(np.max(pks)),
    }


def check_fig3(aggregates: dict[str, float], paper_scale: bool) -> list[str]:
    """Paper-scale catalog runs must equal EXPERIMENTS.md; other seeds must
    keep the Figure 3 shape (the bounds of ``benchmarks/bench_fig3_accuracy.py``)."""
    keys = ("sieve_avg", "sieve_max", "pks_avg", "pks_max")
    if paper_scale:
        return [
            f"{key} = {100 * aggregates[key]:.4f}% != {want}% (EXPERIMENTS.md)"
            for key, (want, digits) in zip(keys, EXPERIMENTS_FIG3)
            if round(100 * aggregates[key], digits) != want
        ]
    problems = []
    if not aggregates["sieve_avg"] < 0.05:
        problems.append(f"sieve_avg {aggregates['sieve_avg']:.4f} >= 0.05")
    if not aggregates["pks_avg"] > 3 * aggregates["sieve_avg"]:
        problems.append("pks_avg is not above 3x sieve_avg")
    if not aggregates["pks_max"] > 0.10:
        problems.append(f"pks_max {aggregates['pks_max']:.4f} <= 0.10")
    return problems


def served_part(body: dict | None) -> dict:
    """The part of a response body that must not depend on how it was served."""
    body = body or {}
    return {key: body.get(key) for key in ("kind", "method", "workload", "result", "pickle_sha256")}


def check_responses(responses: list[tuple[int, dict | None]]) -> list[str]:
    """Every response must be a 2xx with a body."""
    return [
        f"request {index}: HTTP {status}"
        for index, (status, body) in enumerate(responses)
        if not (200 <= status < 300 and body is not None)
    ]


def check_reevaluated(served: dict, expected: dict) -> list[str]:
    """A served body must equal the same request evaluated in process."""
    if served_part(served) != served_part(expected):
        return [
            f"{served.get('workload')}/{served.get('method')}: served result "
            "differs from the in-process evaluation"
        ]
    return []


def check_warm_bodies(warm: list[tuple[int, dict]], cold: dict[int, dict]) -> list[str]:
    """Every warm body must equal the cold body of the same request."""
    return [
        f"warm request {n}: body differs from its cold body (distinct request {index})"
        for n, (index, body) in enumerate(warm)
        if served_part(body) != served_part(cold.get(index))
    ]


def cold_validity(delta: dict[str, float]) -> list[str]:
    """A cold run is valid only if every request really executed."""
    problems = []
    if delta["dispatcher.coalesced"] != 0:
        problems.append(f"{delta['dispatcher.coalesced']:.0f} requests coalesced")
    if delta["cache.hits"] != 0:
        problems.append(f"{delta['cache.hits']:.0f} cache hits")
    return problems


def warm_validity(hit_ratio: float, drain_s: float, max_drain_s: float) -> list[str]:
    """A warm run is valid only if it read the cache alone and kept up."""
    problems = []
    if hit_ratio != 1.0:
        problems.append(f"cache hit ratio {hit_ratio:.4f} != 1")
    if drain_s > max_drain_s:
        problems.append(
            f"backlog: last response {drain_s:.3f}s after the last due time "
            f"(limit {max_drain_s}s)"
        )
    return problems


def check_stream(streamed, batch) -> list[str]:
    """The streamed selection must equal the batch selection, pick for pick."""
    problems = []
    for field in ("workload", "total_instructions", "num_invocations"):
        if getattr(streamed, field) != getattr(batch, field):
            problems.append(f"stream {field} differs from batch")
    if tuple(streamed.representatives) != tuple(batch.representatives):
        problems.append(
            f"streamed picks ({len(streamed.representatives)}) differ from "
            f"batch picks ({len(batch.representatives)})"
        )
    return problems
