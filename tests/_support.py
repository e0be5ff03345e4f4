"""Shared test helpers: hypothesis strategies for types and fixture types."""

from hypothesis import strategies as st

from repro.types import (
    CHAR,
    DOUBLE,
    FLOAT,
    HYPER,
    INT,
    SHORT,
    ArrayDescriptor,
    Field,
    PointerDescriptor,
    RecordDescriptor,
    StringDescriptor,
)

_PRIMS = [CHAR, SHORT, INT, HYPER, FLOAT, DOUBLE]

_counter = [0]


def _fresh_name(prefix):
    _counter[0] += 1
    return f"{prefix}{_counter[0]}"


def leaf_descriptors():
    return st.one_of(
        st.sampled_from(_PRIMS),
        st.integers(min_value=1, max_value=16).map(StringDescriptor),
    )


def descriptors(max_leaves=12):
    """Random descriptor trees (no pointers; see pointer_descriptors)."""

    def extend(children):
        return st.one_of(
            st.tuples(children, st.integers(min_value=1, max_value=5)).map(
                lambda t: ArrayDescriptor(t[0], t[1])),
            st.lists(children, min_size=1, max_size=5).map(
                lambda types: RecordDescriptor(
                    _fresh_name("R"),
                    [Field(f"f{i}", t) for i, t in enumerate(types)])),
        )

    return st.recursive(leaf_descriptors(), extend, max_leaves=max_leaves)


def descriptors_with_pointers(max_leaves=12):
    """Descriptor trees that may contain (self-)pointers."""

    def add_pointer(descriptor):
        target = PointerDescriptor(descriptor, target_name=_fresh_name("T"))
        return RecordDescriptor(
            _fresh_name("P"), [Field("ptr", target), Field("payload", descriptor)])

    return st.one_of(
        descriptors(max_leaves),
        descriptors(max_leaves).map(add_pointer),
    )


def linked_node_type(payload=INT, name=None):
    """A recursive linked-list node record (the paper's Figure 1 type)."""
    name = name or _fresh_name("node")
    next_ptr = PointerDescriptor(None, target_name=name)
    node = RecordDescriptor(name, [Field("key", payload), Field("next", next_ptr)])
    next_ptr.target = node
    return node


def fill_random(acc, descriptor, rng):
    """Fill a value with deterministic pseudo-random data via accessors."""
    import numpy as np

    from repro.arch import PrimKind
    from repro.types import (ArrayDescriptor, PointerDescriptor,
                             PrimitiveDescriptor, RecordDescriptor,
                             StringDescriptor)

    if isinstance(descriptor, PrimitiveDescriptor):
        kind = descriptor.kind
        if kind is PrimKind.CHAR:
            acc.set(chr(rng.integers(32, 127)))
        elif kind is PrimKind.FLOAT:
            acc.set(float(np.float32(rng.normal())))
        elif kind is PrimKind.DOUBLE:
            acc.set(float(rng.normal()))
        else:
            bits = {PrimKind.SHORT: 15, PrimKind.INT: 31, PrimKind.HYPER: 63}[kind]
            acc.set(int(rng.integers(-(2**bits), 2**bits)))
    elif isinstance(descriptor, StringDescriptor):
        length = int(rng.integers(0, descriptor.capacity))
        acc.set("x" * max(0, length - 1))
    elif isinstance(descriptor, RecordDescriptor):
        for f in descriptor.fields:
            fill_random(acc.field_accessor(f.name), f.descriptor, rng)
    elif isinstance(descriptor, ArrayDescriptor):
        for k in range(descriptor.count):
            fill_random(acc.element_accessor(k), descriptor.element, rng)
    elif isinstance(descriptor, PointerDescriptor):
        acc.set(None)


# -- modification tracking: handlers, tuple views, the per-page reference -------

def twin_on_fault(memory, subsegment):
    """Install the library's twin-on-fault handler for one subsegment
    (no client, no lock check) and write-protect it."""

    def handler(space, first_page, count):
        address = first_page * space.page_size
        subsegment.twin_pages(space, (address - subsegment.base) // space.page_size, count)
        space.unprotect_range(address, count * space.page_size)
        return True

    memory.fault_handler = handler
    subsegment.drop_twins()
    memory.protect_range(subsegment.base, subsegment.size)


def as_runs(starts, ends):
    """(starts, ends) arrays as a list of (start, length) tuples."""
    return [(int(start), int(end - start)) for start, end in zip(starts, ends)]


def word_diff_reference(memory, subsegment, word_size, max_gap=0):
    """The word diff one page at a time — what ``word_diff_arrays`` did
    before it became one pass over the subsegment, kept as its reference:
    each twinned page is compared and spliced by itself, then runs that
    meet (or come within ``max_gap``) at page edges are merged."""
    import numpy as np

    from repro.types.layout import merge_run_arrays

    page_size = subsegment.page_size
    page_words = page_size // word_size
    dtype = np.uint32 if word_size == 4 else np.uint64
    all_starts, all_ends = [], []
    for first, stop in subsegment.twinned_runs():
        for index in range(first, stop):
            at = index * page_size
            current = np.frombuffer(
                memory.load(subsegment.base + at, page_size), dtype)
            twin = np.frombuffer(subsegment.twins[at:at + page_size], dtype)
            changed = np.flatnonzero(current != twin)
            if changed.size == 0:
                continue
            breaks = np.flatnonzero(np.diff(changed) > max_gap + 1)
            all_starts.append(changed[np.concatenate(([0], breaks + 1))]
                              + index * page_words)
            all_ends.append(changed[np.concatenate((breaks, [changed.size - 1]))]
                            + 1 + index * page_words)
    if not all_starts:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return merge_run_arrays(np.concatenate(all_starts).astype(np.int64),
                            np.concatenate(all_ends).astype(np.int64), max_gap)


def map_runs_to_blocks(subsegment, byte_runs, skip_serials, arch):
    """``collect.map_ranges_to_blocks`` over (address, length) tuples,
    answering ``serial -> [(prim_start, prim_count)]``."""
    import numpy as np

    from repro.client.collect import map_ranges_to_blocks

    runs = sorted(byte_runs)
    starts = np.fromiter((s for s, _ in runs), np.int64, len(runs))
    ends = np.fromiter((s + c for s, c in runs), np.int64, len(runs))
    mapped = map_ranges_to_blocks(subsegment, starts, ends, skip_serials, arch)
    return {serial: list(zip(prim_starts.tolist(), prim_counts.tolist()))
            for serial, (prim_starts, prim_counts) in mapped.items()}
