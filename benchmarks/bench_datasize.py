#!/usr/bin/env python3
"""Data-size benchmark: the diff data plane at the paper's MB scale.

The paper's evaluation (figures 4 and 6) translates 1 MB working sets;
its diff-vs-RPC story is a *bandwidth* story — when a modest fraction of
a segment changes, wire diffs ship a fraction of the bytes an RPC-style
full transfer (XDR deep copy) must marshal, and that margin is what
makes shared state practical over real links.  This benchmark prices
that story at production data sizes — 1, 8, and 32 MB integer arrays
with 10% scattered writes (every 10th word, so run splicing cannot merge
anything) — against two yardsticks:

- **XDR full transfer** (``repro.rpc.xdr``): marshal + unmarshal of the
  whole array, the RPC baseline of figure 4, measured at every size;
- **copy amplification**: ``wire.bytes_copied`` (every payload
  materialization on the release path) over the bytes actually shipped.

The pre-columnar data plane (interleaved per-run encode/decode, one
``DiffRun`` object and one payload copy per run) no longer exists in the
code; its 8 MB measurement, recorded at commit 91a4629, is carried in
``BENCH_datasize.json`` as ``legacy_baseline`` for the historical record.

The measured operation is the full write-release path: client word
diffing + columnar collect + single-buffer encode, server decode +
vectorized scatter-apply + subblock stamping + re-encode into the diff
cache and WAL (the WAL tier is enabled, ``fsync`` off).

Acceptance (see the tests below):

- copy amplification on the release path stays <= 3x the shipped bytes;
- the diff wins the paper's margin at every size: <= 60% of XDR's wire
  bytes, and faster end-to-end under the modeled LAN bandwidth
  (``REPRO_BENCH_DATASIZE_MBPS``, default 100 Mbit/s — the paper era's
  fast Ethernet);
- a cProfile gate on an 8 MB update from end to end: no per-word Python
  loop (``_collect_per_unit``, ``_apply_per_unit``, ``iter_units``, or any
  function called once per word) in the hot profile of the writer's
  modifying store or its release, none of those names nor any function
  called once per *run* in the hot profile of the reader's read-acquire
  applying it, and in none of the three a function called once per
  4 KiB *page* (fault handling, twinning and the word diff work on page
  ranges);
- the same gate on a pointer-rich update — ``REPRO_BENCH_DATASIZE_RECORDS``
  (16384) ``{int; double; string<32>; node*}`` records, the release-path
  benchmark's ``pointer_records`` shape, 1/8 of them rewritten and
  relinked: none of those names and no function called once per *unit*
  in the hot profile of the writer's release, of the server applying
  that diff, or of a SPARC reader's read-acquire;
- the writer's *modifying stores* of that update (``record.key = ...``
  through the typed accessors): nothing that re-derives a layout
  (``_layout``, ``field_local_offset``, ``RecordDescriptor.field``,
  ``element_stride``, ``_struct_format`` — offsets and codecs are fixed
  once per (type, architecture) in an access plan) anywhere in the
  profile, ``_fault_span`` entered at most once per page the section
  faults, and at most 12 calls of any kind per field store.

Results land in ``BENCH_datasize.json`` at the repo root plus a metrics
sidecar in ``benchmarks/out/``.  Every phase is deadline-guarded
(``REPRO_BENCH_DATASIZE_DEADLINE`` seconds) so a regression that turns
the 32 MB point quadratic fails loudly instead of hanging CI.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_datasize.py

or as a test::

    PYTHONPATH=src python -m pytest benchmarks/bench_datasize.py -q
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
import tempfile
import time
from typing import Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np

from common import World, build_workload

from repro import InProcHub, InterWeaveClient, InterWeaveServer, VirtualClock
from repro.arch import SPARC_V9, X86_32, PrimKind
from repro.memory import PAGE_SIZE
from repro.obs import get_registry, write_sidecar
from repro.rpc import XDRTranslator
from repro.server.segment_state import ServerSegment
from repro.types import (DOUBLE, INT, ArrayDescriptor, Field,
                         PointerDescriptor, RecordDescriptor, StringDescriptor)
from repro.wire import decode_segment_diff

#: working-set sizes in MiB (the paper ran at 1; 8 and 32 are the
#: "production data sizes" this data plane is built for)
POINTS_MB = [int(point) for point in os.environ.get(
    "REPRO_BENCH_DATASIZE_POINTS", "1,8,32").split(",")]
#: every RATIO-th word is changed: 10% of the data, scattered so the
#: 2-word splice window cannot merge runs (the worst case for run count)
RATIO = 10
ROUNDS = int(os.environ.get("REPRO_BENCH_DATASIZE_ROUNDS", "3"))
#: modeled link bandwidth for the end-to-end comparison, Mbit/s
MODEL_MBPS = float(os.environ.get("REPRO_BENCH_DATASIZE_MBPS", "100"))
#: per-phase hang guard, like REPRO_BENCH_CONNSCALE_DEADLINE
DEADLINE_SECONDS = float(os.environ.get("REPRO_BENCH_DATASIZE_DEADLINE",
                                        "300"))
#: the size the profile gates run at
PROFILE_MB = 8
#: records in the pointer-rich profile gate, and the share rewritten
POINTER_RECORDS = int(os.environ.get("REPRO_BENCH_DATASIZE_RECORDS", "16384"))
POINTER_TOUCHED_SHARE = 8
#: the deleted pre-columnar data plane's last measurement, verbatim from
#: the BENCH_datasize.json committed with it (``speedup`` is against that
#: run's 8 MB zero-copy point)
LEGACY_BASELINE = {
    "recorded_at_commit": "91a4629",
    "mb": 8,
    "release_s": 0.7356698229996255,
    "release_rounds_s": [0.7734774480013584, 0.7356698229996255],
    "diff_wire_bytes": 3355508,
    "bytes_copied": 17616144,
    "copy_amplification": 5.2499186412310745,
    "speedup": 7.932882697864066,
}
#: functions that are, by construction, per-word Python loops — none may
#: show up in the hot profile of an MB-scale release
BANNED_HOT_FUNCTIONS = {"_collect_per_unit", "_apply_per_unit",
                        "iter_units"}
#: what a field store did on every access before access plans, as
#: (file, function): none may appear anywhere in the profile of the stores
BANNED_STORE_FUNCTIONS = {
    ("descriptor.py", "_layout"), ("descriptor.py", "field_local_offset"),
    ("descriptor.py", "field"), ("descriptor.py", "element_stride"),
    ("architecture.py", "_struct_format")}
#: profiled calls (Python functions and builtins) one field store may cost,
#: the element lookups and the loop around it included (32 before plans)
MAX_CALLS_PER_STORE = 12
PROFILE_TOP_N = 25

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULTS_PATH = os.path.join(REPO_ROOT, "BENCH_datasize.json")


class _Deadline:
    """Per-phase watchdog: raises instead of letting a phase hang."""

    def __init__(self, label: str, seconds: float = DEADLINE_SECONDS):
        self.label = label
        self.expires = time.monotonic() + seconds
        self.seconds = seconds

    def check(self, phase: str) -> None:
        if time.monotonic() > self.expires:
            raise RuntimeError(
                f"{self.label}: {phase} missed the {self.seconds:.0f}s "
                f"deadline (REPRO_BENCH_DATASIZE_DEADLINE)")


def _make_world(wal_dir: str) -> World:
    """A bench world with the durability tier on (WAL, fsync off) so the
    release path includes the append the server really pays."""
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("bench", sink=hub, clock=clock,
                              wal_dir=wal_dir, wal_fsync=False)
    hub.register_server("bench", server)
    client = InterWeaveClient("writer", X86_32, hub.connect, clock=clock)
    return World(clock, hub, server, client)


def _modify_scattered(workload, salt: int) -> None:
    """Read-modify-write every RATIO-th word of the array."""
    client = workload.world.client
    address = workload.block.address
    dtype = client.arch.numpy_dtype(PrimKind.INT)
    raw = bytearray(client.memory.load(address, workload.block.size))
    words = np.frombuffer(raw, dtype=dtype)
    updated = words.copy()
    updated[::RATIO] = (updated[::RATIO] + salt + 1) % 100000
    client.memory.store(address, updated.tobytes())


def _measure_release(data_bytes: int, deadline: _Deadline,
                     rounds: int = ROUNDS) -> dict:
    """Best-of-N wall time of the full release path, plus the byte
    accounting (shipped diff size, copies) of one representative round."""
    registry = get_registry()
    with tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        workload = build_workload("int_array", world, data_bytes=data_bytes)
        client = world.client
        times, accounting = [], None
        for salt in range(rounds):
            deadline.check(f"release round {salt}")
            client.wl_acquire(workload.segment)
            _modify_scattered(workload, salt)
            copied0 = registry.counter("wire.bytes_copied").value
            started = time.perf_counter()
            client.wl_release(workload.segment)
            times.append(time.perf_counter() - started)
            if accounting is None:
                copied = (registry.counter("wire.bytes_copied").value
                          - copied0)
                version = workload.segment.version
                encoded = world.server.diff_cache.get(
                    workload.segment.name, version - 1, version)
                accounting = {
                    "diff_wire_bytes": len(encoded) if encoded else 0,
                    "bytes_copied": copied,
                }
        wire_bytes = max(accounting["diff_wire_bytes"], 1)
        return {
            "release_s": min(times),
            "release_rounds_s": times,
            "copy_amplification": accounting["bytes_copied"] / wire_bytes,
            **accounting,
        }


def _measure_xdr(data_bytes: int, deadline: _Deadline,
                 rounds: int = ROUNDS) -> dict:
    """Full-transfer baseline: XDR deep-copy marshal + unmarshal."""
    clock = VirtualClock()
    hub = InProcHub(clock=clock)
    server = InterWeaveServer("bench", sink=hub, clock=clock)
    hub.register_server("bench", server)
    client = InterWeaveClient("writer", X86_32, hub.connect, clock=clock)
    world = World(clock, hub, server, client)
    workload = build_workload("int_array", world, data_bytes=data_bytes)
    translator = XDRTranslator(workload.descriptor, world.client.arch)
    memory, address = world.client.memory, workload.block.address
    marshal_times, unmarshal_times = [], []
    wire = b""
    for _ in range(rounds):
        deadline.check("xdr round")
        started = time.perf_counter()
        wire = translator.marshal(memory, address)
        marshal_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        translator.unmarshal(memory, address, wire)
        unmarshal_times.append(time.perf_counter() - started)
    return {
        "xdr_marshal_s": min(marshal_times),
        "xdr_unmarshal_s": min(unmarshal_times),
        "xdr_wire_bytes": len(wire),
    }


def _modeled_e2e(cpu_seconds: float, wire_bytes: int) -> float:
    """End-to-end seconds under the modeled link: CPU + transfer."""
    return cpu_seconds + wire_bytes / (MODEL_MBPS * 125_000.0)


def _hot_profile(profiler: cProfile.Profile, call_limit: int,
                 page_call_limit: Optional[int] = None) -> dict:
    """The top-N tottime functions of a profile and the offenders among
    them: banned per-word loops, or anything called ``call_limit`` times
    — or, where given, ``page_call_limit`` times (once per page)."""
    limits = {"call_limit": call_limit}
    if page_call_limit is not None:
        limits["page_call_limit"] = page_call_limit
    stats = pstats.Stats(profiler)
    entries = sorted(stats.stats.items(),
                     key=lambda item: item[1][2], reverse=True)
    top, offenders = [], []
    for (filename, lineno, name), (cc, ncalls, tottime, _, _) in \
            entries[:PROFILE_TOP_N]:
        row = {"function": name, "file": os.path.basename(filename),
               "calls": ncalls, "tottime_s": round(tottime, 6)}
        top.append(row)
        if name in BANNED_HOT_FUNCTIONS or ncalls >= min(limits.values()):
            offenders.append(row)
    return {"top": top, "offenders": offenders, "top_n": PROFILE_TOP_N,
            **limits}


def _store_profile(profiler: cProfile.Profile, stores: int, pages: int) -> dict:
    """The whole profile of ``stores`` field stores that faulted ``pages``
    pages: layout re-derivations in it, ``_fault_span`` entries against
    the pages, and calls per store."""
    stats = pstats.Stats(profiler)
    calls = {(os.path.basename(filename), name): ncalls
             for (filename, _, name), (_, ncalls, _, _, _) in stats.stats.items()}
    # no call limit: every function on the store path runs once per store
    return {**_hot_profile(profiler, call_limit=stats.total_calls + 1),
            "stores": stores, "calls": stats.total_calls,
            "calls_per_store": round(stats.total_calls / stores, 2),
            "rederived": sorted(name for file, name in BANNED_STORE_FUNCTIONS
                                if (file, name) in calls),
            "fault_span_calls": calls.get(("mmu.py", "_fault_span"), 0),
            "page_call_limit": pages}


def _profiled(call) -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    call()
    profiler.disable()
    return profiler


def _profile_update(data_bytes: int, deadline: _Deadline) -> dict:
    """cProfile one scattered update from end to end: the writer's
    modifying store and its release (nothing may loop once per word) and
    a big-endian reader's read-acquire applying it (nothing may loop
    once per run) — and nothing anywhere once per page."""
    words = data_bytes // 4
    pages = data_bytes // PAGE_SIZE
    with tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        workload = build_workload("int_array", world, data_bytes=data_bytes)
        writer = world.client
        reader = world.new_client("reader", SPARC_V9)
        cached = reader.open_segment(workload.segment.name, create=False)
        reader.rl_acquire(cached)
        reader.rl_release(cached)
        writer.wl_acquire(workload.segment)
        modify = _profiled(lambda: _modify_scattered(workload, salt=99))
        if writer.stats.twins_created < pages:
            raise RuntimeError("the profiled store faulted too few pages")
        deadline.check("profiled release")
        release = _profiled(lambda: writer.wl_release(workload.segment))
        deadline.check("profiled read-acquire")
        read = _profiled(lambda: reader.rl_acquire(cached))
        if cached.version != workload.segment.version:
            raise RuntimeError("profiled read-acquire applied no update")
        reader.rl_release(cached)
    return {"modify": _hot_profile(modify, words, pages),
            "release": _hot_profile(release, words, pages),
            "read_acquire": _hot_profile(read, -(-words // RATIO), pages)}


def _covered_units(diff) -> int:
    return sum(block.columns.covered_units() for block in diff.block_diffs)


def _profile_pointer_update(records: int, deadline: _Deadline) -> dict:
    """cProfile one relinking write over an array of pointer/string
    records: the writer's modifying stores (no layout re-derived, a fault
    per page at most) and the three translate sites — the writer's
    release, the server's apply of that diff (replayed on a second copy
    of the segment, so the profile holds nothing else) and a big-endian
    reader's read-acquire — where nothing may loop once per unit."""
    link = PointerDescriptor(target_name="node_t")
    node = RecordDescriptor("node_t", [
        Field("key", INT), Field("w", DOUBLE),
        Field("label", StringDescriptor(32)), Field("next", link)])
    link.target = node
    rng = np.random.default_rng(16)

    def rewrite(array, index: int, salt: int) -> None:
        record = array[index]
        record.key = index + salt
        record.label = f"label-{index:06d}-{salt:04d}-{'x' * 8}"
        record.next = array.element_accessor(int(rng.integers(records)))

    with tempfile.TemporaryDirectory(prefix="bench-datasize-") as tmp:
        world = _make_world(tmp)
        writer = world.client
        segment = writer.open_segment("bench/pointer_records")
        writer.wl_acquire(segment)
        array = writer.malloc(segment, ArrayDescriptor(node, records), name="nodes")
        for index in range(records):
            rewrite(array, index, salt=0)
            array[index].w = index * 0.5
        writer.wl_release(segment)
        deadline.check("pointer segment set-up")
        reader = world.new_client("reader", SPARC_V9)
        cached = reader.open_segment(segment.name, create=False)
        reader.rl_acquire(cached)
        reader.rl_release(cached)
        writer.wl_acquire(segment)
        touched = rng.choice(records, records // POINTER_TOUCHED_SHARE,
                             replace=False).tolist()
        twins = writer.stats.twins_created
        modify = _profiled(lambda: [rewrite(array, index, salt=1)
                                    for index in touched])
        pages = writer.stats.twins_created - twins
        release = _profiled(lambda: writer.wl_release(segment))
        deadline.check("profiled pointer release")
        # the server's apply alone: bring a second copy of the segment to the
        # version before, from the diffs the server cached, and apply the last
        *earlier, (_, _, last) = sorted(
            world.server.diff_cache.entries_for(segment.name))
        shadow = ServerSegment(segment.name)
        for _, _, encoded in earlier:
            shadow.apply_client_diff(decode_segment_diff(encoded))
        diff = decode_segment_diff(last)
        server_apply = _profiled(lambda: shadow.apply_client_diff(diff))
        state = world.server.segments[segment.name].state
        update_units = _covered_units(state.build_update(cached.version))
        read = _profiled(lambda: reader.rl_acquire(cached))
        deadline.check("profiled pointer read-acquire")
        if cached.version != segment.version or shadow.version != segment.version:
            raise RuntimeError("a profiled pointer update applied nothing")
        reader.rl_release(cached)
    return {"modify": _store_profile(modify, 3 * len(touched), pages),
            "release": _hot_profile(release, call_limit=_covered_units(diff)),
            "server_apply": _hot_profile(server_apply,
                                         call_limit=_covered_units(diff)),
            "read_acquire": _hot_profile(read, call_limit=update_units),
            "records": records, "diff_units": _covered_units(diff),
            "update_units": update_units}


def run_all() -> dict:
    registry = get_registry()
    registry.reset()
    points = []
    for size_mb in POINTS_MB:
        deadline = _Deadline(f"datasize-{size_mb}MB")
        data_bytes = size_mb << 20
        release = _measure_release(data_bytes, deadline=deadline)
        xdr = _measure_xdr(data_bytes, deadline=deadline)
        diff_e2e = _modeled_e2e(release["release_s"],
                                release["diff_wire_bytes"])
        xdr_e2e = _modeled_e2e(xdr["xdr_marshal_s"] + xdr["xdr_unmarshal_s"],
                               xdr["xdr_wire_bytes"])
        points.append({
            "mb": size_mb,
            "data_bytes": data_bytes,
            "change_ratio": RATIO,
            **release,
            **xdr,
            "wire_ratio": release["diff_wire_bytes"] / xdr["xdr_wire_bytes"],
            "diff_e2e_modeled_s": diff_e2e,
            "xdr_e2e_modeled_s": xdr_e2e,
            "modeled_speedup": xdr_e2e / diff_e2e,
        })

    profile_mb = max((mb for mb in POINTS_MB if mb <= PROFILE_MB),
                     default=min(POINTS_MB))
    deadline = _Deadline(f"datasize-profile-{profile_mb}MB")
    profile = _profile_update(profile_mb << 20, deadline=deadline)

    pointer_profile = _profile_pointer_update(
        POINTER_RECORDS, _Deadline("datasize-profile-pointers"))

    results = {
        "points": points,
        "legacy_baseline": LEGACY_BASELINE,
        "profile_gate": profile,
        "profile_gate_pointers": pointer_profile,
        "config": {
            "points_mb": POINTS_MB,
            "change_ratio": RATIO,
            "rounds": ROUNDS,
            "model_mbps": MODEL_MBPS,
            "workload": "int_array, every 10th word rewritten "
                        "(10% scattered; no run splicing possible)",
        },
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(RESULTS_PATH, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    write_sidecar(os.path.join(OUT_DIR, "bench_datasize.metrics.json"),
                  registry.snapshot())
    return results


_cache: dict = {}


def _results() -> dict:
    if "results" not in _cache:
        _cache["results"] = run_all()
    return _cache["results"]


def test_copy_amplification_bounded():
    """Bytes materialized on the release path stay <= 3x the bytes
    actually shipped, at every size."""
    results = _results()
    for point in results["points"]:
        assert point["copy_amplification"] <= 3.0, point


def test_diff_beats_xdr_margin():
    """The paper's story at every size: the diff ships well under the
    full-transfer bytes and wins end-to-end on the modeled link."""
    results = _results()
    for point in results["points"]:
        assert point["wire_ratio"] <= 0.6, point
        assert point["modeled_speedup"] >= 1.2, point


def test_no_per_word_python_loop_in_profile():
    """No per-word Python loop may appear in the hot profile of an
    MB-scale store or release, no per-run loop in the hot profile of the
    read-acquire applying it (the data plane is columnar end to end),
    and no per-page loop in any of them."""
    results = _results()
    assert set(results["profile_gate"]) == {"modify", "release", "read_acquire"}
    for end, gate in results["profile_gate"].items():
        assert 0 < gate["page_call_limit"] < gate["call_limit"]
        assert not gate["offenders"], (end, gate["offenders"])


def test_no_per_unit_python_loop_in_pointer_profile():
    """Nor may a per-unit loop appear where strings and pointers are
    translated: the writer's release, the server's apply, and a SPARC
    reader's read-acquire of a relinking write over 16k records.  The
    stores that made the write re-derive no layout, enter the fault
    machinery once per faulted page at most, and stay within the call
    budget of a compiled access plan."""
    gates = _results()["profile_gate_pointers"]
    assert gates["diff_units"] >= gates["records"] // POINTER_TOUCHED_SHARE
    modify = gates["modify"]
    assert not modify["rederived"], modify["rederived"]
    assert 0 < modify["fault_span_calls"] <= modify["page_call_limit"]
    assert modify["calls_per_store"] <= MAX_CALLS_PER_STORE, modify
    for end in ("release", "server_apply", "read_acquire"):
        assert not gates[end]["offenders"], (end, gates[end]["offenders"])


def test_results_file_written():
    _results()
    with open(RESULTS_PATH) as handle:
        doc = json.load(handle)
    assert doc["points"] and doc["profile_gate"]["read_acquire"]["top"]


def main() -> None:
    results = _results()
    config = results["config"]
    print(f"data-size scaling (10% scattered writes, modeled link "
          f"{config['model_mbps']:.0f} Mbit/s, best of {config['rounds']})")
    print(f"{'size':>5s} {'release':>9s} {'diff MB':>8s} {'amp':>5s} "
          f"{'xdr cpu':>9s} {'xdr MB':>7s} {'e2e diff':>9s} "
          f"{'e2e xdr':>8s} {'win':>6s}")
    for point in results["points"]:
        xdr_cpu = point["xdr_marshal_s"] + point["xdr_unmarshal_s"]
        print(f"{point['mb']:4d}M {point['release_s'] * 1e3:8.1f}m "
              f"{point['diff_wire_bytes'] / 1e6:8.2f} "
              f"{point['copy_amplification']:5.2f} "
              f"{xdr_cpu * 1e3:8.1f}m {point['xdr_wire_bytes'] / 1e6:7.2f} "
              f"{point['diff_e2e_modeled_s'] * 1e3:8.1f}m "
              f"{point['xdr_e2e_modeled_s'] * 1e3:7.1f}m "
              f"{point['modeled_speedup']:5.2f}x")
    baseline = results["legacy_baseline"]
    print(f"pre-columnar data plane @ {baseline['mb']}MB (recorded at "
          f"{baseline['recorded_at_commit']}, since deleted): "
          f"{baseline['release_s'] * 1e3:.1f} ms/release "
          f"(amp {baseline['copy_amplification']:.2f}x)")
    pointers = results["profile_gate_pointers"]
    gates = [(f"int array, {end}", gate)
             for end, gate in results["profile_gate"].items()]
    gates += [(f"{pointers['records']} pointer records, {end}", pointers[end])
              for end in ("release", "server_apply", "read_acquire")]
    modify = pointers["modify"]
    print(f"profile gate ({pointers['records']} pointer records, modify): "
          f"{modify['calls_per_store']} calls per field store, "
          f"{modify['fault_span_calls']} fault entries for "
          f"{modify['page_call_limit']} pages, layouts re-derived: "
          f"{modify['rederived'] or 'none'}")
    for label, gate in gates:
        print(f"profile gate ({label}): top-{gate['top_n']} clean"
              if not gate["offenders"] else
              f"profile gate ({label}): OFFENDERS {gate['offenders']}")
    print(f"[results -> {os.path.relpath(RESULTS_PATH)}]")


if __name__ == "__main__":
    main()
