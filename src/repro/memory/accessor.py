"""Typed accessors: ordinary reads and writes over simulated memory.

InterWeave's selling point is that once a segment is mapped, shared data is
accessed "using ordinary reads and writes" — in C, through plain pointers
and struct fields.  In this reproduction the equivalent surface is the
accessor layer: an :class:`Accessor` wraps (address, type descriptor) and
turns attribute access (``node.key = 5``), indexing (``vec[3] = 1.5``), and
pointer dereference (``node.next``) into loads and stores through the
simulated MMU — so writes take write faults exactly like compiled stores
would, which is what drives twin creation and diffing.

Scalar fields auto-unwrap: reading ``node.key`` yields an ``int``, reading
``node.next`` yields another accessor (or ``None`` for NULL).  Aggregate
fields yield sub-accessors.

The paper's IDL compiler fixes every field offset at compile time, so a
store costs a store.  Here the same work is done once per (descriptor,
architecture) and kept on the descriptor as an :class:`AccessPlan`;
every accessor reads offsets, strides and value codecs from it.
"""

from __future__ import annotations

import struct
from functools import partial
from typing import Optional, Sequence

import numpy as np

from repro.arch import Architecture, PrimKind
from repro.errors import BlockError
from repro.memory.mmu import AddressSpace
from repro.types import (
    ArrayDescriptor,
    PointerDescriptor,
    PrimitiveDescriptor,
    RecordDescriptor,
    StringDescriptor,
    TypeDescriptor,
)
from repro.types.descriptor import FieldIndex


class AccessorContext:
    """Everything an accessor needs to touch memory: the address space and
    the architecture whose local format the bytes are in."""

    __slots__ = ("memory", "arch")

    def __init__(self, memory: AddressSpace, arch: Architecture):
        self.memory = memory
        self.arch = arch


def make_accessor(context: AccessorContext, descriptor: TypeDescriptor,
                  address: int) -> "Accessor":
    """Build the accessor class matching ``descriptor``."""
    return access_plan(descriptor, context.arch).bind(context, address)


class Accessor:
    """Base: a typed window at an address in simulated memory."""

    __slots__ = ("_plan", "_context", "_address")

    def __init__(self, plan: "AccessPlan", context: AccessorContext, address: int):
        object.__setattr__(self, "_plan", plan)
        object.__setattr__(self, "_context", context)
        object.__setattr__(self, "_address", address)

    @property
    def address(self) -> int:
        return self._address

    @property
    def descriptor(self) -> TypeDescriptor:
        return self._plan.descriptor

    @property
    def context(self) -> AccessorContext:
        return self._context

    def raw_bytes(self) -> bytes:
        """The local-format bytes of this value (mainly for tests)."""
        return self._context.memory.load(self._address, self._plan.size)

    def __eq__(self, other):
        return (isinstance(other, Accessor)
                and other._address == self._address
                and other._context is self._context
                and other.descriptor == self.descriptor)

    def __hash__(self):
        return hash((id(self._context), self._address))

    def __reduce__(self):
        # the default protocol would set slots through RecordAccessor's
        # field-storing __setattr__
        return make_accessor, (self._context, self.descriptor, self._address)

    def __repr__(self):
        return f"{type(self).__name__}({self.descriptor!r} @ {self._address:#x})"


class _ValueAccessor(Accessor):
    """A scalar: ``get`` and ``set`` move one value."""

    __slots__ = ()

    def get(self):
        return self._plan.get(self._context, self._address)

    def set(self, value) -> None:
        self._plan.set(self._context, self._address, value)


class PrimitiveAccessor(_ValueAccessor):
    """A scalar char/short/int/hyper/float/double."""

    __slots__ = ()


class StringAccessor(_ValueAccessor):
    """A bounded, NUL-terminated string buffer."""

    __slots__ = ()


class PointerAccessor(_ValueAccessor):
    """A typed pointer holding a simulated machine address (NULL = 0);
    ``get`` yields an accessor for the target (``None`` for NULL), ``set``
    takes ``None``, an address or an accessor."""

    __slots__ = ()

    def address_value(self) -> int:
        return self._context.arch.decode_prim(PrimKind.POINTER, self.raw_bytes())


class RecordAccessor(Accessor):
    """A struct: fields are attributes (``rec.field``)."""

    __slots__ = ()

    def __getattr__(self, name: str):
        offset, plan = self._plan.fields[name]
        return plan.get(self._context, self._address + offset)

    def __setattr__(self, name: str, value) -> None:
        offset, plan = self._plan.fields[name]
        plan.set(self._context, self._address + offset, value)

    def field_accessor(self, name: str) -> Accessor:
        """An accessor for a field even when it is a scalar (no unwrap)."""
        offset, plan = self._plan.fields[name]
        return plan.bind(self._context, self._address + offset)

    def field_names(self):
        return list(self._plan.fields)


def _bad_index(error: Exception, index, plan: "AccessPlan") -> Exception:
    if isinstance(error, IndexError):
        return IndexError(
            f"array index {index} out of range [0, {len(plan.offsets)})")
    return TypeError(f"array index must be an integer, not {index!r}")


class ArrayAccessor(Accessor):
    """An array: elements are items (``arr[i]``), with bulk helpers."""

    __slots__ = ()

    def __len__(self) -> int:
        return len(self._plan.offsets)

    # ``offsets[index]`` wraps a negative index, bounds-checks it and
    # refuses a non-integer in one C-level subscript; a slice comes back
    # as a range, which the addition refuses.  Written out in each of the
    # three methods: a shared helper would be one more call per access.

    def __getitem__(self, index: int):
        plan = self._plan
        try:
            address = self._address + plan.offsets[index]
        except (IndexError, TypeError) as error:
            raise _bad_index(error, index, plan) from None
        return plan.element.get(self._context, address)

    def __setitem__(self, index: int, value) -> None:
        plan = self._plan
        try:
            address = self._address + plan.offsets[index]
        except (IndexError, TypeError) as error:
            raise _bad_index(error, index, plan) from None
        plan.element.set(self._context, address, value)

    def element_accessor(self, index: int) -> Accessor:
        plan = self._plan
        try:
            address = self._address + plan.offsets[index]
        except (IndexError, TypeError) as error:
            raise _bad_index(error, index, plan) from None
        return plan.element.bind(self._context, address)

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]

    # -- bulk operations (the fast path the benchmarks use) -----------------------

    def write_values(self, values: Sequence, start: int = 0) -> None:
        """Bulk-store primitive values, one MMU store per call.

        Only valid for arrays of fixed-size primitives; values are encoded
        in the architecture's local format with numpy.
        """
        descriptor: ArrayDescriptor = self._plan.descriptor
        element = descriptor.element
        if not isinstance(element, PrimitiveDescriptor):
            raise BlockError("write_values requires an array of primitives")
        if start < 0 or start + len(values) > descriptor.count:
            raise IndexError("write_values range out of bounds")
        dtype = self._context.arch.numpy_dtype(element.kind)
        data = np.asarray(values, dtype=dtype).tobytes()
        self._context.memory.store(self._address + start * dtype.itemsize, data)

    def read_values(self, start: int = 0, count: Optional[int] = None) -> np.ndarray:
        """Bulk-load primitive values as a numpy array."""
        descriptor: ArrayDescriptor = self._plan.descriptor
        element = descriptor.element
        if not isinstance(element, PrimitiveDescriptor):
            raise BlockError("read_values requires an array of primitives")
        if count is None:
            count = descriptor.count - start
        if start < 0 or start + count > descriptor.count:
            raise IndexError("read_values range out of bounds")
        dtype = self._context.arch.numpy_dtype(element.kind)
        data = self._context.memory.load(self._address + start * dtype.itemsize,
                                         count * dtype.itemsize)
        return np.frombuffer(data, dtype=dtype)


# -- access plans ----------------------------------------------------------------


class AccessPlan:
    """How values of one type are reached on one architecture: offsets,
    strides and codecs worked out once.

    ``get`` reads what ``record.field`` yields (a value for scalars, an
    accessor for aggregates), ``set`` stores a Python value (or copies an
    aggregate), ``bind`` makes the accessor itself; all take
    ``(context, address)``.  A record has ``fields`` (name -> (byte
    offset, plan)); an array has ``element`` (its plan) and ``offsets``,
    the range of its elements' byte offsets.
    """

    __slots__ = ("descriptor", "size", "bind", "get", "set",
                 "fields", "element", "offsets")

    def __init__(self, descriptor: TypeDescriptor, arch: Architecture):
        self.descriptor = descriptor
        self.fields = self.element = self.offsets = None
        ops = None  # aggregates: reading yields the accessor, storing copies
        if isinstance(descriptor, RecordDescriptor):
            cls = RecordAccessor
            self.fields = FieldIndex(descriptor.name, (
                (field.name, (offset, access_plan(field.descriptor, arch)))
                for field, offset, _ in descriptor.iter_field_layout(arch)))
        elif isinstance(descriptor, ArrayDescriptor):
            cls = ArrayAccessor
            self.element = access_plan(descriptor.element, arch)
            stride = descriptor.element_stride(arch)
            self.offsets = range(0, descriptor.count * stride, stride)
        elif isinstance(descriptor, PrimitiveDescriptor):
            cls, ops = PrimitiveAccessor, _primitive_ops(descriptor.kind, arch)
        elif isinstance(descriptor, StringDescriptor):
            cls, ops = StringAccessor, _string_ops(descriptor.capacity)
        elif isinstance(descriptor, PointerDescriptor):
            cls, ops = PointerAccessor, _pointer_ops(descriptor, arch)
        else:
            raise BlockError(f"no accessor for descriptor {descriptor!r}")
        self.size = descriptor.local_size(arch)
        self.bind = partial(cls, self)
        self.get, self.set = ops or (self.bind, self._copy_from)

    def _copy_from(self, context: AccessorContext, address: int, value) -> None:
        """Struct assignment: a byte copy in matching local formats."""
        if not (isinstance(value, Accessor) and value.descriptor == self.descriptor):
            raise BlockError(f"cannot assign {value!r} to aggregate {self.descriptor!r}")
        if value.context.arch.name != context.arch.name:
            raise BlockError("cannot byte-copy between different architectures")
        context.memory.store(address, value.raw_bytes())


def access_plan(descriptor: TypeDescriptor, arch: Architecture) -> AccessPlan:
    """The plan for (``descriptor``, ``arch``), built on first use and kept
    on the descriptor instance."""
    plans = getattr(descriptor, "_access_plans", None) or {}
    plan = plans.get(arch.name)
    if plan is None:
        plan = plans[arch.name] = AccessPlan(descriptor, arch)
        descriptor._access_plans = plans
    return plan


def _packed_ops(codec: struct.Struct, what: str, encode=None, decode=None):
    """``(get, set)`` of a scalar held as one packed number; ``encode`` /
    ``decode`` stand between it and the Python value where they differ."""
    pack, unpack, size = codec.pack, codec.unpack, codec.size

    def get(context, address):
        number = unpack(context.memory.load(address, size))[0]
        return decode(context, number) if decode else number

    def set(context, address, value):
        try:
            data = pack(encode(value) if encode else value)
        except (struct.error, OverflowError, TypeError):
            raise BlockError(f"cannot store {value!r} as {what}") from None
        context.memory.store(address, data)

    return get, set


def _primitive_ops(kind: PrimKind, arch: Architecture):
    codec = arch.prim_struct(kind)
    if kind is not PrimKind.CHAR:
        return _packed_ops(codec, kind.value)
    return _packed_ops(
        codec, kind.value,
        lambda value: ord(value) if isinstance(value, str) else value,
        lambda context, code: chr(code))


def _pointer_ops(descriptor: PointerDescriptor, arch: Architecture):
    def address_of(target):
        if isinstance(target, Accessor):
            return target._address
        return 0 if target is None else target

    def dereference(context, address):
        if address == 0:
            return None
        # read now, not when the plan was built: a recursive type assigns
        # ``target`` after construction
        return access_plan(descriptor.target, arch).bind(context, address)

    return _packed_ops(arch.prim_struct(PrimKind.POINTER), "pointer",
                       address_of, dereference)


def _string_ops(capacity: int):
    padding = bytes(capacity)

    def get(context, address):
        data = context.memory.load(address, capacity)
        nul = data.find(b"\x00")
        return (data if nul < 0 else data[:nul]).decode("utf-8", errors="replace")

    def set(context, address, value):
        try:
            encoded = value.encode("utf-8")
        except (AttributeError, UnicodeError):
            raise BlockError(f"cannot store {value!r} as string<{capacity}>") from None
        size = len(encoded)
        if size >= capacity:
            raise BlockError(
                f"string of {size} bytes exceeds capacity {capacity} "
                "(one byte is reserved for the terminator)")
        context.memory.store(address, encoded + padding[size:])

    return get, set
