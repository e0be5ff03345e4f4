"""Ablation — diff run splicing (Section 3.3).

When one or two unchanged words separate changed words, InterWeave splices
the whole stretch into one run: a run header costs two words anyway, and a
spliced run is faster to apply.  The paper notes splicing is "particularly
effective when translating double-word primitive data in which only one
word has changed" — which is exactly the modified-every-other-word case
(ratio 2 in Figure 5).

Measured: collecting and applying a ratio-2 modification of an int array
with splicing on vs. off; extra_info records the run counts and payload
bytes (splicing trades a little payload for far fewer runs).

Run: ``pytest benchmarks/bench_ablation_splicing.py --benchmark-only``
"""

import pytest

from bench_fig5_granularity import modify_every_kth_word
from common import abort_session, build_workload, make_world
from conftest import ROUNDS


@pytest.mark.parametrize("splice", [True, False], ids=["spliced", "unspliced"])
def test_collect_ratio2(benchmark, splice):
    world = make_world(enable_splicing=splice)
    workload = build_workload("int_array", world)
    client = world.client
    state = {"active": False, "salt": 0}

    def setup():
        if state["active"]:
            abort_session(workload)
        client.wl_acquire(workload.segment)
        state["salt"] += 1
        modify_every_kth_word(workload, 2, state["salt"])
        state["active"] = True

    def run():
        diff, _ = client._collect(workload.segment)
        state["diff"] = diff

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    benchmark.group = "ablation-splicing-collect"
    runs = sum(bd.columns.run_count for bd in state["diff"].block_diffs)
    benchmark.extra_info["runs_in_diff"] = runs
    benchmark.extra_info["payload_bytes"] = state["diff"].payload_bytes()
    if state["active"]:
        abort_session(workload)


@pytest.mark.parametrize("splice", [True, False], ids=["spliced", "unspliced"])
def test_apply_ratio2(benchmark, splice):
    from repro.client.apply import apply_update

    world = make_world(enable_splicing=splice)
    workload = build_workload("int_array", world)
    client = world.client
    client.wl_acquire(workload.segment)
    modify_every_kth_word(workload, 2, salt=99)
    diff, _ = client._collect(workload.segment)
    abort_session(workload)

    reader = world.new_client("reader")
    segment = reader.open_segment(workload.segment.name)
    reader.rl_acquire(segment)
    reader.rl_release(segment)

    benchmark.pedantic(
        lambda: apply_update(reader.tctx, segment.heap, segment.registry, diff,
                             first_cache=False),
        rounds=ROUNDS, iterations=1)
    benchmark.group = "ablation-splicing-apply"
    benchmark.extra_info["runs_in_diff"] = sum(
        bd.columns.run_count for bd in diff.block_diffs)
