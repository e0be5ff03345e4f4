#!/usr/bin/env python3
"""Release-path benchmark: real servers, real TCP, four workloads.

    python3 bench/run.py --seed N                      # everything, table
    python3 bench/run.py --seed N --workload bulk_array --trace 0

Without ``--trace`` each selected workload is run twice — untraced for
the end-to-end metrics, then traced for the per-layer ledger — and a
table of every metric is printed.  With ``--trace 0|1`` (how the
regression gate calls it) one workload is run once and the last line of
standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--out FILE`` appends one JSON line per run, the input of
``bench/compare.py``.  See ``bench/README.md`` for what every metric
means and where its number comes from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
#: a run that has not finished by then is killed (the gate allows 180 s)
RUN_DEADLINE_SECONDS = 170.0


def load_contract() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def build_parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True,
                        help="drives every generated input")
    parser.add_argument("--workload", choices=workload_names, default=None,
                        help="run one workload (default: all four)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per run (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics only; 1: per-layer "
                             "metrics only; omitted: both, as a table")
    parser.add_argument("--workdir", default=os.path.join(BENCH_DIR, "out"),
                        help="where WAL directories and trace files go "
                             "(a real filesystem, not tmpfs)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="append one JSON line per run to FILE")
    return parser


def environment(seed: int, workdir: str) -> dict:
    import numpy

    from topology import filesystem_type

    commit = "unknown"
    if os.path.exists(os.path.join(REPO_ROOT, ".git")):  # the gate's checkout has none
        try:
            commit = subprocess.run(
                ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "wal_filesystem": filesystem_type(workdir),
        "seed": seed,
    }


def run_once(name: str, seed: int, seconds: float, trace: int,
             run_dir: str, trace_dir: str, reaper) -> dict:
    """One workload, one mode → ``{correct, attempted, failed, metrics}``
    (metrics as ``name → value``) plus the failures' descriptions."""
    from repro import Tracer

    import driver
    import ledger

    reaper.arm(RUN_DEADLINE_SECONDS)
    # the client's default tracer keeps 512 spans; a traced window keeps
    # all of them
    tracer = Tracer(capacity=(1 << 20) if trace else 512)
    session = None
    try:
        if trace:
            # set-up time is an end-to-end metric: one set-up suffices
            recorder = ledger.Recorder(tracer)
            _, session = driver.timed_setups(
                name, seed, run_dir, reaper, tracer, repeats=1,
                wrap=recorder.wrap)
            samples, metrics = ledger.per_layer(
                session, recorder, seconds, run_dir,
                os.path.join(trace_dir, f"trace-{name}.json"))
        else:
            setup_seconds, session = driver.timed_setups(
                name, seed, run_dir, reaper, tracer)
            samples, metrics = driver.end_to_end(session, seconds, setup_seconds)
    finally:
        if session is not None:
            driver.close_session(session, reaper)
        reaper.disarm()
    return {"correct": samples.failed == 0 and samples.attempted > 0,
            "attempted": max(1, samples.attempted),
            "failed": samples.failed,
            "metrics": metrics,
            "errors": samples.errors}


def contract_line(result: dict, declared: list) -> str:
    """The gate's result object: exactly the declared metrics, with units."""
    units = {metric["name"]: metric["unit"] for metric in declared}
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def print_table(name: str, mode: str, result: dict, declared: list) -> None:
    print(f"\n== {name} ({mode}) — attempted {result['attempted']}, "
          f"failed {result['failed']}, "
          f"failed_ops_share {result['failed'] / result['attempted']:.6f}")
    for metric in declared:
        value = result["metrics"].get(metric["name"])
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {metric['name']:<40s} {shown:>14s} {metric['unit']}")
    for error in result["errors"]:
        print(f"  !! {error}")


def main(argv=None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    args = build_parser(names).parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        sys.stderr.write("bench: src/repro not found next to bench/; the "
                         "benchmark measures the program in this checkout\n")
        return 2
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    seconds = args.seconds if args.seconds is not None else contract["run_seconds"]
    selected = [args.workload] if args.workload else names
    modes = [args.trace] if args.trace is not None else [0, 1]
    gate_mode = args.trace is not None and args.workload is not None

    def interrupted(signum, _frame):
        raise KeyboardInterrupt(f"signal {signum}")

    # explicit for SIGINT too: a shell's background job inherits it ignored
    signal.signal(signal.SIGINT, interrupted)
    signal.signal(signal.SIGTERM, interrupted)
    os.makedirs(args.workdir, exist_ok=True)
    # WAL directories live in a per-invocation directory so concurrent or
    # crashed invocations never share one; it is removed on every exit path
    run_dir = tempfile.mkdtemp(prefix="run-", dir=args.workdir)
    from topology import Reaper

    reaper = Reaper(run_dir)
    env = environment(args.seed, run_dir)
    all_correct = True
    last = None
    try:
        for name in selected:
            for trace in modes:
                declared = contract["per_layer" if trace else "end_to_end"]
                result = run_once(name, args.seed, seconds, trace, run_dir,
                                  args.workdir, reaper)
                all_correct &= result["correct"]
                last = (result, declared)
                if not gate_mode:
                    print_table(name, "traced" if trace else "untraced",
                                result, declared)
                if args.out:
                    record = dict(result, workload=name, trace=trace,
                                  seconds=seconds, environment=env)
                    with open(args.out, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(record) + "\n")
    finally:
        # nothing may cut the last sweep short: whatever an interrupted
        # teardown left running is killed and reaped here
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        reaper.sweep()
    if gate_mode:
        for error in last[0]["errors"]:
            sys.stderr.write(f"bench: {error}\n")
        print(contract_line(*last))
        return 0
    print(f"\nenvironment: {json.dumps(env)}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
