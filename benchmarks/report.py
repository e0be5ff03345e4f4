#!/usr/bin/env python3
"""Regenerate every figure of the paper's evaluation as text tables.

This is the one-shot harness behind EXPERIMENTS.md: it runs each
experiment at the configured scale and prints the same rows/series the
paper's figures plot, plus the shape checks that should hold regardless
of absolute speed.  pytest-benchmark covers the same ground with proper
statistics; this script favours a readable, paper-shaped report.

Usage::

    python benchmarks/report.py [fig4] [fig5] [fig6] [fig7] [ablations] [datasize]

With no arguments, everything runs (a few minutes).
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

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

from repro.client.apply import ApplyStats, apply_update
from repro.obs import get_registry, write_sidecar
from repro.rpc import XDRTranslator
from repro.wire import decode_segment_diff, encode_segment_diff

REPEATS = int(os.environ.get("REPRO_BENCH_ROUNDS", "3"))
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def best_of(fn, repeats=REPEATS):
    """Best-of-N wall time in seconds (minimum is robust to noise)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def fig4():
    print(f"\n== Figure 4: client cost to translate {DATA_BYTES // 1024} KiB "
          "(milliseconds, best of %d) ==" % REPEATS)
    header = f"{'datatype':14s} {'rpc_xdr':>9s} {'coll_blk':>9s} " \
             f"{'coll_diff':>9s} {'appl_blk':>9s} {'appl_diff':>9s}"
    print(header)
    rows = {}
    for name in workload_names():
        world = make_world()
        workload = build_workload(name, world)
        translator = XDRTranslator(workload.descriptor, world.client.arch)
        memory, address = world.client.memory, workload.block.address
        rpc = best_of(lambda: translator.marshal(memory, address))

        def timed_collect(diffing):
            times = []
            for _ in range(REPEATS):
                begin_dirty_session(workload)
                started = time.perf_counter()
                collect_session(workload, use_diffing=diffing)
                times.append(time.perf_counter() - started)
                abort_session(workload)
            return min(times)

        collect_block = timed_collect(False)
        collect_diff = timed_collect(True)

        block_diff = make_update_diff(workload, diffed=False)
        run_diff = make_update_diff(workload, diffed=True)
        reader, segment = make_reader(workload)
        apply_block = best_of(lambda: apply_update(
            reader.tctx, segment.heap, segment.registry, block_diff,
            first_cache=False))
        apply_diff = best_of(lambda: apply_update(
            reader.tctx, segment.heap, segment.registry, run_diff,
            first_cache=False))
        rows[name] = (rpc, collect_block, collect_diff, apply_block, apply_diff)
        print(f"{name:14s} {rpc * 1e3:9.2f} {collect_block * 1e3:9.2f} "
              f"{collect_diff * 1e3:9.2f} {apply_block * 1e3:9.2f} "
              f"{apply_diff * 1e3:9.2f}")
    xdr = sum(r[0] for r in rows.values())
    blk = sum(r[1] for r in rows.values())
    dif = sum(r[2] for r in rows.values())
    print(f"\nshape checks: sum(collect_block)/sum(rpc) = {blk / xdr:.2f} "
          "(paper: block mode ~25% faster than RPC)")
    print(f"              sum(collect_diff)/sum(collect_block) = {dif / blk:.2f} "
          "(paper: block ~39% faster than diff)")
    return rows


def fig5():
    from bench_fig5_granularity import _ratios, modify_every_kth_word

    print(f"\n== Figure 5: diff cost vs change ratio "
          f"({DATA_BYTES // 1024} KiB int array; milliseconds) ==")
    print(f"{'ratio':>6s} {'cl_collect':>10s} {'word_diff':>10s} "
          f"{'translate':>10s} {'cl_apply':>10s} {'sv_collect':>10s} "
          f"{'sv_apply':>10s} {'diff_KiB':>9s}")
    world = make_world()
    workload = build_workload("int_array", world)
    client = world.client
    state = world.server.segments[workload.segment.name].state
    salt = [0]
    for ratio in _ratios():
        collect_times, word_times, translate_times = [], [], []
        payload = 0
        for _ in range(REPEATS):
            client.wl_acquire(workload.segment)
            salt[0] += 1
            modify_every_kth_word(workload, ratio, salt[0])
            client.stats.collect.reset()
            started = time.perf_counter()
            diff, _ = client._collect(workload.segment)
            collect_times.append(time.perf_counter() - started)
            word_times.append(client.stats.collect.word_diff_seconds)
            translate_times.append(client.stats.collect.translate_seconds)
            payload = diff.payload_bytes()
            abort_session(workload)

        # one committed version for server-collect and client-apply
        client.wl_acquire(workload.segment)
        salt[0] += 1
        modify_every_kth_word(workload, ratio, salt[0])
        before = workload.segment.version
        client.wl_release(workload.segment)
        server_collect = best_of(lambda: state.build_update(before))
        update = encode_segment_diff(state.build_update(before))
        reader, segment_r = make_reader(workload, name=f"r{ratio}")
        decoded = decode_segment_diff(update)
        client_apply = best_of(lambda: apply_update(
            reader.tctx, segment_r.heap, segment_r.registry, decoded,
            first_cache=False))

        server_apply_times = []
        for _ in range(REPEATS):
            client.wl_acquire(workload.segment)
            salt[0] += 1
            modify_every_kth_word(workload, ratio, salt[0])
            diff, _ = client._collect(workload.segment)
            abort_session(workload)
            diff.from_version = state.version
            started = time.perf_counter()
            state.apply_client_diff(diff)
            server_apply_times.append(time.perf_counter() - started)

        print(f"{ratio:6d} {min(collect_times) * 1e3:10.2f} "
              f"{min(word_times) * 1e3:10.2f} {min(translate_times) * 1e3:10.2f} "
              f"{client_apply * 1e3:10.2f} {server_collect * 1e3:10.2f} "
              f"{min(server_apply_times) * 1e3:10.2f} {payload / 1024:9.1f}")
    print("shape checks: word-diff knee at ratio 1024 (page size); "
          "server costs flat for ratios 1..16 (16-unit subblocks)")


def fig6():
    from bench_fig6_swizzling import (BATCH, CROSS_SIZES, _cross_segment,
                                      batched_addresses)

    print("\n== Figure 6: pointer swizzling cost (microseconds per pointer) ==")
    print(f"{'case':>12s} {'collect(swizzle)':>17s} {'apply(unswizzle)':>17s}")
    world = make_world()
    client = world.client

    def per_op(fn, loops=2000):
        best = float("inf")
        for _ in range(REPEATS):
            started = time.perf_counter()
            for _ in range(loops):
                fn()
            best = min(best, (time.perf_counter() - started) / loops)
        return best * 1e6

    from repro.types import INT, Field, RecordDescriptor

    segment = client.open_segment("bench/int1")
    client.wl_acquire(segment)
    int_block = client.malloc(segment, INT, name="i")
    record = RecordDescriptor("s32", [Field(f"f{k}", INT) for k in range(32)])
    struct_block = client.malloc(segment, record, name="s")
    client.wl_release(segment)
    cases = {
        "int 1": int_block.address,
        "struct 1": struct_block.address
        + record.field_local_offset(client.arch, "f16"),
    }
    for size in CROSS_SIZES:
        cases[f"cross {size}"] = _cross_segment(world, size)
    for label, address in cases.items():
        mip = client._pointer_to_mip(address)
        collect = per_op(lambda: client._pointer_to_mip(address))
        apply_cost = per_op(lambda: client._mip_to_pointer(mip))
        print(f"{label:>12s} {collect:17.2f} {apply_cost:17.2f}")
    print("shape checks: modest growth with segment size (tree searches); "
          "int 1 cheapest")

    print(f"\n-- batch hooks: {BATCH} pointers per call "
          "(million pointers per second) --")
    print(f"{'target blocks':>14s} {'collect':>9s} {'apply':>9s}")
    rates = {}
    for size in CROSS_SIZES:
        addresses = batched_addresses(world, size)
        texts = client._pointers_to_mips(addresses)  # builds the block index
        rates[size] = [BATCH / best_of(call) / 1e6 for call in (
            lambda: client._pointers_to_mips(addresses),
            lambda: client._mips_to_pointers(texts))]
        print(f"{size:14d} {rates[size][0]:9.2f} {rates[size][1]:9.2f}")
    first, last = rates[CROSS_SIZES[0]], rates[CROSS_SIZES[-1]]
    print("shape checks: rate at %d blocks / rate at %d blocks = "
          "%.2f collect, %.2f apply (paper: flat)"
          % (CROSS_SIZES[0], CROSS_SIZES[-1], first[0] / last[0],
             first[1] / last[1]))


def fig7():
    from bench_fig7_datamining import CONFIGS, CUSTOMERS, INCREMENTS, run_scenario

    print(f"\n== Figure 7: datamining bandwidth ({CUSTOMERS} customers, "
          f"{INCREMENTS} 1% increments) ==")
    print(f"{'configuration':>15s} {'total KiB':>10s} {'vs full':>8s}")
    results = {config: run_scenario(config) for config in CONFIGS}
    full_bytes = results["full_transfer"]["bytes"]
    for config in CONFIGS:
        total = results[config]["bytes"]
        print(f"{config:>15s} {total / 1024:10.1f} {100 * total / full_bytes:7.0f}%")
    print("shape checks: diffs cut most of the bandwidth (paper: ~80%); "
          "Delta-x decreases monotonically")


def datasize():
    from bench_datasize import main as datasize_main

    print("\n== Data-size scaling: diff vs XDR full transfer at MB scale ==")
    datasize_main()  # writes BENCH_datasize.json and its own sidecar


def ablations():
    print("\n== Ablations (Section 3.3 optimizations; milliseconds) ==")
    # no-diff
    for enabled in (True, False):
        world = make_world(enable_nodiff=enabled)
        workload = build_workload("int_array", world)

        def session():
            world.client.wl_acquire(workload.segment)
            workload.fill()
            world.client.wl_release(workload.segment)

        for _ in range(5):
            session()
        cost = best_of(session)
        label = "adaptive no-diff" if enabled else "always diff"
        print(f"  heavy rewrite, {label:17s}: {cost * 1e3:8.2f}")
    # isomorphic
    from repro.types.layout import FlatLayout
    from repro.wire import TranslationContext, collect_block

    world = make_world()
    workload = build_workload("int_struct", world)
    tctx = TranslationContext(world.client.memory, world.client.arch)
    for coalesce in (True, False):
        layout = FlatLayout(workload.descriptor, world.client.arch, coalesce)
        cost = best_of(lambda: collect_block(tctx, layout, workload.block.address))
        label = "isomorphic" if coalesce else "per-field"
        print(f"  int_struct collect, {label:13s}: {cost * 1e3:8.2f} "
              f"({len(layout.runs)} runs)")


def run_experiment(name, fn):
    """Run one figure with a clean metrics registry; write its sidecar.

    The ``benchmarks/out/<name>.metrics.json`` sidecar records every
    protocol-event count the run produced (faults, diff runs, RLE bytes,
    swizzles, ...) so perf changes can be diffed by *work done*, not just
    wall time.
    """
    registry = get_registry()
    registry.reset()
    fn()
    os.makedirs(OUT_DIR, exist_ok=True)
    path = write_sidecar(os.path.join(OUT_DIR, f"{name}.metrics.json"),
                         registry.snapshot())
    print(f"[metrics sidecar -> {os.path.relpath(path)}]")


def main():
    wanted = set(sys.argv[1:]) or {"fig4", "fig5", "fig6", "fig7",
                                   "ablations", "datasize"}
    print(f"InterWeave reproduction report "
          f"(working set {DATA_BYTES // 1024} KiB, best of {REPEATS})")
    experiments = [("fig4", fig4), ("fig5", fig5), ("fig6", fig6),
                   ("fig7", fig7), ("ablations", ablations),
                   ("datasize", datasize)]
    for name, fn in experiments:
        if name in wanted:
            run_experiment(name, fn)


if __name__ == "__main__":
    main()
