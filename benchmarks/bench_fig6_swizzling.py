"""Figure 6 — pointer swizzling cost vs. pointed-to object type.

Measures the cost of swizzling ("collect pointer": local address -> MIP)
and unswizzling ("apply pointer": MIP -> local address) a single pointer:

- ``int1``    — an intra-segment pointer to the start of an integer block;
- ``struct1`` — an intra-segment pointer into the middle of a structure
  with 32 fields;
- ``crossN``  — cross-segment pointers to blocks in a segment holding N
  total blocks, N in 1 .. 65536.

Paper shapes to check: cost rises only modestly with N (balanced-tree
searches in the metadata), ``int1`` is cheapest, and even moderately
complex cross-segment pointers swizzle at about a million per second (on
2003 hardware; the Python constant factor is larger, the growth curve is
what matters).

``batchedN`` is the same question asked the way translation asks it: one
call of the client's batch hooks on ``BATCH`` pointers spread over all N
blocks of ``crossN`` — ``searchsorted`` over the sorted block index one
way, a dictionary of the index's ``segment#serial`` heads the other, the
byte offset <-> primitive unit step through the layout in array form.

Run: ``pytest benchmarks/bench_fig6_swizzling.py --benchmark-only``
"""

import os

import pytest

from common import make_world

from repro.types import INT, ArrayDescriptor, Field, RecordDescriptor

CROSS_SIZES = [1, 16, 64, 256, 1024, 4096, 16384, 65536]
if os.environ.get("REPRO_BENCH_FAST"):
    CROSS_SIZES = [1, 16, 256, 4096]


@pytest.fixture(scope="module")
def world():
    return make_world()


@pytest.fixture(scope="module")
def int1(world):
    client = world.client
    segment = client.open_segment("bench/int1")
    client.wl_acquire(segment)
    block = client.malloc(segment, INT, name="i")
    block.set(7)
    client.wl_release(segment)
    return block.address


@pytest.fixture(scope="module")
def struct1(world):
    client = world.client
    record = RecordDescriptor("s32", [Field(f"f{k}", INT) for k in range(32)])
    segment = client.open_segment("bench/struct1")
    client.wl_acquire(segment)
    block = client.malloc(segment, record, name="s")
    client.wl_release(segment)
    # a pointer to the middle of the structure (field 16)
    return block.address + record.field_local_offset(client.arch, "f16")


def _cross_segment(world, total_blocks: int) -> int:
    """A segment with ``total_blocks`` blocks; returns a mid-tree address."""
    client = world.client
    segment = client.open_segment(f"bench/cross{total_blocks}")
    client.wl_acquire(segment)
    target = None
    for index in range(total_blocks):
        block = client.malloc(segment, ArrayDescriptor(INT, 4))
        if index == total_blocks // 2:
            target = block
    client.wl_release(segment)
    return target.address


#: pointers per call of the batch hooks
BATCH = 65536


def batched_addresses(world, total_blocks: int, count: int = BATCH):
    """``count`` element addresses cycling over every block of crossN:
    whatever N, a quarter point at a block's first unit, the rest inside."""
    segment = world.client.segments[f"bench/cross{total_blocks}"]
    blocks = [block.address for block in segment.heap.blocks()]
    return [blocks[k % total_blocks] + 4 * (k % 4) for k in range(count)]


@pytest.fixture(scope="module")
def cross_targets(world):
    return {size: _cross_segment(world, size) for size in CROSS_SIZES}


def _bench_pair(benchmark, client, address, group, which):
    if which == "collect":
        run = lambda: client._pointer_to_mip(address)
    else:
        mip = client._pointer_to_mip(address)
        run = lambda: client._mip_to_pointer(mip)
    result = benchmark(run)
    benchmark.group = f"fig6-{group}"


@pytest.mark.parametrize("which", ["collect", "apply"])
def test_int1(benchmark, world, int1, which):
    _bench_pair(benchmark, world.client, int1, "int1", which)


@pytest.mark.parametrize("which", ["collect", "apply"])
def test_struct1(benchmark, world, struct1, which):
    _bench_pair(benchmark, world.client, struct1, "struct1", which)


@pytest.mark.parametrize("size", CROSS_SIZES)
@pytest.mark.parametrize("which", ["collect", "apply"])
def test_cross_segment(benchmark, world, cross_targets, size, which):
    _bench_pair(benchmark, world.client, cross_targets[size],
                f"cross{size:05d}", which)


@pytest.mark.parametrize("size", CROSS_SIZES)
@pytest.mark.parametrize("which", ["collect", "apply"])
def test_batched(benchmark, world, cross_targets, size, which):
    client = world.client
    addresses = batched_addresses(world, size)
    texts = client._pointers_to_mips(addresses)  # builds the block index
    if which == "collect":
        benchmark(lambda: client._pointers_to_mips(addresses))
    else:
        benchmark(lambda: client._mips_to_pointers(texts))
    benchmark.group = f"fig6-batched{size:05d}"
    benchmark.extra_info["pointers"] = BATCH
