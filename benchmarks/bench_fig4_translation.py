"""Figure 4 — client cost to translate the nine datatypes.

The paper translates 1 MB of each datatype between local and wire format
and compares five costs per type:

- ``rpc_xdr``        — rpcgen/XDR parameter marshaling (the baseline bar);
- ``collect_block``  — InterWeave local->wire with diffing disabled
  (no-diff mode: translate whole blocks);
- ``collect_diff``   — InterWeave local->wire through the full diff
  pipeline (twins -> word diff -> splice -> map -> translate), with every
  unit modified;
- ``apply_block``    — wire->local of a whole-block update;
- ``apply_diff``     — wire->local of the run-structured diff.

Paper shape to check against (Section 4.1): InterWeave block mode beats
RPC on average (markedly on ``pointer`` and ``small_string``, where XDR
deep copies and padding hurt); collect_block beats collect_diff (~39% in
the paper) because diffing pays for word comparison; apply_block edges
apply_diff (~4%).

``test_batched_floor`` is not a figure but a floor under three of its
rows, independent of the hardware: whole-block collect and apply of
``small_string``, ``pointer`` and ``mix`` must each run at least
``BATCHED_FLOOR`` times faster than the same call sent through the
per-unit reference loop, sides alternated, best of five.

Run: ``pytest benchmarks/bench_fig4_translation.py --benchmark-only``
"""

import time
from unittest import mock

import pytest

from common import (
    DATA_BYTES,
    abort_session,
    begin_dirty_session,
    build_workload,
    collect_session,
    make_reader,
    make_update_diff,
    make_world,
    workload_names,
)
from conftest import ROUNDS

from repro.client.apply import apply_update
from repro.rpc import XDRTranslator
from repro.wire import translate

WORKLOADS = workload_names()
#: batched translation over the per-unit loop, whole blocks of 256 KiB
#: (measured 8x to 16x; see EXPERIMENTS.md, Figure 4)
BATCHED_FLOOR = 5.0


@pytest.fixture(scope="module")
def workloads():
    """One world per datatype, built once for the whole module."""
    built = {}
    for name in WORKLOADS:
        built[name] = build_workload(name, make_world())
    return built


@pytest.mark.parametrize("name", WORKLOADS)
def test_rpc_xdr_marshal(benchmark, workloads, name):
    workload = workloads[name]
    translator = XDRTranslator(workload.descriptor, workload.world.client.arch)
    memory = workload.world.client.memory
    address = workload.block.address

    result = benchmark.pedantic(
        lambda: translator.marshal(memory, address), rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"
    benchmark.extra_info["wire_bytes"] = len(translator.marshal(memory, address))
    benchmark.extra_info["data_bytes"] = DATA_BYTES


@pytest.mark.parametrize("name", WORKLOADS)
def test_collect_block(benchmark, workloads, name):
    """InterWeave translation with diffing disabled (no-diff mode)."""
    workload = workloads[name]
    state = {"active": False}

    def setup():
        if state["active"]:
            abort_session(workload)
        begin_dirty_session(workload)
        state["active"] = True

    def run():
        diff, _ = collect_session(workload, use_diffing=False)
        state["diff"] = diff

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"
    benchmark.extra_info["wire_bytes"] = state["diff"].payload_bytes()
    if state["active"]:
        abort_session(workload)


@pytest.mark.parametrize("name", WORKLOADS)
def test_collect_diff(benchmark, workloads, name):
    """InterWeave translation through the full twin/diff pipeline."""
    workload = workloads[name]
    state = {"active": False}

    def setup():
        if state["active"]:
            abort_session(workload)
        begin_dirty_session(workload)
        state["active"] = True

    def run():
        diff, _ = collect_session(workload, use_diffing=True)
        state["diff"] = diff

    benchmark.pedantic(run, setup=setup, rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"
    benchmark.extra_info["wire_bytes"] = state["diff"].payload_bytes()
    if state["active"]:
        abort_session(workload)


@pytest.mark.parametrize("name", WORKLOADS)
def test_apply_block(benchmark, workloads, name):
    workload = workloads[name]
    diff = make_update_diff(workload, diffed=False)
    reader, segment = make_reader(workload, name=f"rb-{name}")

    benchmark.pedantic(
        lambda: apply_update(reader.tctx, segment.heap, segment.registry, diff,
                             first_cache=False),
        rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_apply_diff(benchmark, workloads, name):
    workload = workloads[name]
    diff = make_update_diff(workload, diffed=True)
    reader, segment = make_reader(workload, name=f"rd-{name}")

    benchmark.pedantic(
        lambda: apply_update(reader.tctx, segment.heap, segment.registry, diff,
                             first_cache=False),
        rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_rpc_xdr_unmarshal(benchmark, workloads, name):
    """The paper: "we found unmarshaling costs to be roughly identical"."""
    workload = workloads[name]
    client = workload.world.client
    translator = XDRTranslator(workload.descriptor, client.arch)
    data = translator.marshal(client.memory, workload.block.address)
    # decode into a scratch block of the same type (deep-copied pointer
    # targets need an allocator)
    scratch = workload.segment.heap.allocate(workload.descriptor, 0)
    client.memory.store(scratch.address, bytes(scratch.size))
    allocated = []

    def allocator(descriptor):
        block = workload.segment.heap.allocate(descriptor, 0)
        client.memory.store(block.address, bytes(block.size))
        allocated.append(block)
        return block.address

    def setup():
        # free the previous round's deep-copy targets (an XDR decoder
        # frees its result between calls too)
        for block in allocated:
            workload.segment.heap.free(block)
        allocated.clear()

    benchmark.pedantic(
        lambda: translator.unmarshal(client.memory, scratch.address, data,
                                     allocator=allocator),
        setup=setup, rounds=ROUNDS, iterations=1)
    benchmark.group = f"fig4-{name}"


@pytest.mark.parametrize("name", ["small_string", "pointer", "mix"])
def test_batched_floor(workloads, name):
    workload = workloads[name]
    diff = make_update_diff(workload, diffed=False)
    reader, segment = make_reader(workload, name=f"rf-{name}")

    def collect():
        begin_dirty_session(workload)
        started = time.perf_counter()
        collect_session(workload, use_diffing=False)
        elapsed = time.perf_counter() - started
        abort_session(workload)
        return elapsed

    def apply():
        started = time.perf_counter()
        apply_update(reader.tctx, segment.heap, segment.registry, diff,
                     first_cache=False)
        return time.perf_counter() - started

    def per_unit(call):
        with mock.patch.object(translate, "_batched", lambda *args: False):
            return call()

    for call in (collect, apply):
        batched, reference = [], []
        for round_ in range(5):
            if round_ % 2:  # sides alternated
                reference.append(per_unit(call))
            batched.append(call())
            if not round_ % 2:
                reference.append(per_unit(call))
        assert min(reference) >= BATCHED_FLOOR * min(batched), (
            name, call.__name__, min(reference), min(batched))
