"""Smoke test of the release-path benchmark (run explicitly:
``python3 -m pytest bench/test_smoke.py``; not part of tier-1's
``testpaths``).

One ``--seconds 1`` pass over all four workloads, untraced and traced:
the output must carry exactly the workload and metric names declared in
``BENCHMARK.json``, no operation may fail, and no server process may
survive the command.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)


def _process_group_members(pgid: int) -> list:
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                # pid (comm) state ppid pgrp ...; comm may contain spaces
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if int(fields[2]) == pgid:
            members.append(int(entry))
    return members


def test_one_second_pass_over_every_workload(tmp_path):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    out = tmp_path / "smoke.jsonl"
    # its own process group, so anything it leaves behind can be found
    run = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--seed", "7",
         "--seconds", "1", "--workdir", str(tmp_path / "work"),
         "--out", str(out)],
        cwd=REPO_ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, start_new_session=True)
    try:
        stdout, _ = run.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, 9)
        run.wait()
        raise
    assert run.returncode == 0, stdout

    records = [json.loads(line) for line in out.read_text().splitlines()]
    declared_workloads = [entry["name"] for entry in contract["workloads"]]
    assert sorted({record["workload"] for record in records}) \
        == sorted(declared_workloads)
    assert len(records) == 2 * len(declared_workloads)
    for record in records:
        declared = contract["per_layer" if record["trace"] else "end_to_end"]
        assert sorted(record["metrics"]) == sorted(
            metric["name"] for metric in declared), record["workload"]
        assert record["correct"] is True, record
        assert record["failed"] == 0, record  # failed_ops_share == 0
        assert record["attempted"] >= 1
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert f" {metric['name']} " in stdout, metric["name"]

    assert _process_group_members(run.pid) == [], "orphan server processes"
    # every WAL directory is gone; only the trace files stay
    assert sorted(os.listdir(tmp_path / "work")) == sorted(
        f"trace-{name}.json" for name in declared_workloads)
