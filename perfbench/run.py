"""Run one workload of the repository benchmark and print its result.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_fig3 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

``--trace 0`` measures the end-to-end metrics with the benchmark's layer
timers off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics. A human-readable summary (every metric with its unit
and sample count, plus the correctness checks) goes to standard error;
the last line of standard output is the JSON result. A run whose
validity checks fail exits with status 3 and prints no result; a
checkout without the program's source exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def _runner(workload: str):
    if workload == "paper_fig3":
        from perfbench import fig3

        return fig3.run
    if workload == "stream_1m":
        from perfbench import stream

        return stream.run
    from perfbench import service

    return service.run_cold if workload == "service_cold" else service.run_warm


def _setup_probe(workload: str, seed: int) -> None:
    """One workload set-up in this fresh interpreter (timed by the parent)."""
    if workload == "paper_fig3":
        from perfbench import fig3

        fig3.setup(seed).close()
    elif workload == "stream_1m":
        from perfbench import stream

        stream.setup(seed)
    else:
        raise harness.BenchError(f"{workload} boots its server instead")


def _summary(workload: str, out: harness.Outcome, units: dict[str, str]) -> str:
    lines = [f"== {workload}: correct={out.correct} attempted={out.attempted} failed={out.failed}"]
    for name, unit in units.items():
        samples = out.samples.get(name)
        count = f"  (n={samples})" if samples else ""
        lines.append(f"  {name:36s} {out.metrics[name]:>14.6g} {unit}{count}")
    lines += [f"  {name:36s} {value:>14.6g}" for name, value in out.notes.items()]
    lines += [f"  FAILED CHECK: {problem}" for problem in out.problems]
    return "\n".join(lines)


def _run_all(args) -> int:
    """Every gated workload in a fresh process, then one table of the results."""
    status = 0
    table = []
    for workload in harness.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, cwd=harness.ROOT, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"perfbench: {workload} exited {done.returncode}", file=sys.stderr)
            status = status or done.returncode
            continue
        result = json.loads(done.stdout.strip().splitlines()[-1])
        status = status or (0 if result["correct"] else 1)
        for name, metric in result["metrics"].items():
            table.append(f"{workload:14s} {name:36s} {metric['value']:>14.6g} {metric['unit']}")
        table.append(f"{workload:14s} {'correct':36s} {str(result['correct']):>14s}")
    print("\n".join(table))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=(*harness.WORKLOADS, *harness.UNGATED_WORKLOADS, "all"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        harness.require_program()
        if args.workload == "all":
            return _run_all(args)
        if args.setup_probe:
            _setup_probe(args.workload, args.seed)
            return 0
        out = _runner(args.workload)(args.seed, args.seconds, bool(args.trace))
    except harness.BenchError as exc:
        print(f"perfbench: run rejected: {exc}", file=sys.stderr)
        return 3 if harness.SRC.joinpath("repro").is_dir() else 2
    finally:
        harness.remove_run_dir()
    units = harness.PER_LAYER if args.trace else harness.END_TO_END
    if args.trace:
        for name in units:
            out.metrics.setdefault(name, 0.0)
    print(_summary(args.workload, out, units), file=sys.stderr)
    print(out.result_line(units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
