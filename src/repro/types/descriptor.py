"""Type descriptors.

As in multi-language RPC systems, the types of shared data in InterWeave
are declared in an IDL and compiled into *type descriptors* that tell the
library the substructure and layout of each type.  A descriptor records,
for every field, both the machine-specific byte offset (different on every
architecture) and the machine-independent *primitive offset* — the index of
the field counted in primitive data units from the start of the block.
Those two coordinate systems, and the mapping between them, are what let
InterWeave translate between local format and wire format and swizzle
pointers.

Descriptor kinds (mirroring the paper): a single pre-defined descriptor per
primitive type, plus derived descriptors for arrays, records, and pointers.
Strings get their own descriptor because their local representation (a
fixed-capacity buffer) is per-type.

Descriptors are immutable once built, except that :class:`PointerDescriptor`
targets may be patched after construction to close recursive types
(``struct node { node *next; }``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.arch import Architecture, PrimKind
from repro.errors import TypeDescriptorError


class TypeDescriptor:
    """Base class: a shape that can be laid out on any architecture."""

    #: number of primitive data units in one instance (machine-independent)
    prim_count: int
    #: access plans by architecture name, one dict per instance, created
    #: and filled by :func:`repro.memory.accessor.access_plan`
    _access_plans: Optional[dict] = None

    def local_size(self, arch: Architecture) -> int:
        """Size in bytes of one instance in ``arch``'s local format."""
        raise NotImplementedError

    def local_align(self, arch: Architecture) -> int:
        """Required alignment in ``arch``'s local format."""
        raise NotImplementedError

    def type_key(self) -> tuple:
        """A hashable structural identity (used for descriptor interning).

        Pointer targets contribute only their *name* (or "anon") to the
        key, so recursive types terminate.
        """
        raise NotImplementedError

    # Subclasses are compared structurally via type_key.
    def __eq__(self, other):
        return isinstance(other, TypeDescriptor) and self.type_key() == other.type_key()

    def __hash__(self):
        return hash(self.type_key())


class PrimitiveDescriptor(TypeDescriptor):
    """A fixed-size primitive: char, short, int, hyper, float, or double."""

    def __init__(self, kind: PrimKind):
        if kind in (PrimKind.POINTER, PrimKind.STRING):
            raise TypeDescriptorError(f"{kind} needs its dedicated descriptor class")
        self.kind = kind
        self.prim_count = 1

    def local_size(self, arch: Architecture) -> int:
        return arch.prim_size(self.kind)

    def local_align(self, arch: Architecture) -> int:
        return arch.prim_align(self.kind)

    def type_key(self) -> tuple:
        return ("prim", self.kind.value)

    def __repr__(self):
        return f"Prim({self.kind.value})"


#: The pre-defined primitive descriptors (one per kind, as in the paper).
CHAR = PrimitiveDescriptor(PrimKind.CHAR)
SHORT = PrimitiveDescriptor(PrimKind.SHORT)
INT = PrimitiveDescriptor(PrimKind.INT)
HYPER = PrimitiveDescriptor(PrimKind.HYPER)
FLOAT = PrimitiveDescriptor(PrimKind.FLOAT)
DOUBLE = PrimitiveDescriptor(PrimKind.DOUBLE)

PRIMITIVES: Dict[str, PrimitiveDescriptor] = {
    descriptor.kind.value: descriptor
    for descriptor in (CHAR, SHORT, INT, HYPER, FLOAT, DOUBLE)
}


class StringDescriptor(TypeDescriptor):
    """A bounded string: one primitive unit, variable wire size.

    Locally a string is a fixed ``capacity``-byte buffer holding a
    NUL-terminated byte string (so it can be overwritten in place, and so
    page diffing sees its bytes).  On the wire it is sent as length +
    content only — which is why the paper's server stores strings
    out-of-line from their blocks.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise TypeDescriptorError(f"string capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.prim_count = 1

    def local_size(self, arch: Architecture) -> int:
        return self.capacity

    def local_align(self, arch: Architecture) -> int:
        return 1

    def type_key(self) -> tuple:
        return ("string", self.capacity)

    def __repr__(self):
        return f"String({self.capacity})"


class PointerDescriptor(TypeDescriptor):
    """A pointer: one primitive unit.

    Locally a machine address (4 or 8 bytes, NULL = 0); on the wire a MIP
    string.  ``target`` may be ``None`` transiently while the IDL compiler
    closes a recursive type, but must be set before layout/translation.
    """

    def __init__(self, target: Optional[TypeDescriptor] = None, target_name: str = "anon"):
        self.target = target
        self.target_name = target_name
        self.prim_count = 1

    def local_size(self, arch: Architecture) -> int:
        return arch.pointer_size

    def local_align(self, arch: Architecture) -> int:
        return arch.prim_align(PrimKind.POINTER)

    def type_key(self) -> tuple:
        return ("pointer", self.target_name)

    def __repr__(self):
        return f"Pointer(->{self.target_name})"


class ArrayDescriptor(TypeDescriptor):
    """A fixed-count array of a single element type, contiguous locally."""

    def __init__(self, element: TypeDescriptor, count: int):
        if count < 1:
            raise TypeDescriptorError(f"array count must be >= 1, got {count}")
        self.element = element
        self.count = count
        self.prim_count = element.prim_count * count

    def local_size(self, arch: Architecture) -> int:
        return self.element_stride(arch) * self.count

    def element_stride(self, arch: Architecture) -> int:
        """Per-element stride: the element size padded to its alignment."""
        align = self.element.local_align(arch)
        return Architecture.align_up(self.element.local_size(arch), align)

    def local_align(self, arch: Architecture) -> int:
        return self.element.local_align(arch)

    def type_key(self) -> tuple:
        return ("array", self.count, self.element.type_key())

    def __repr__(self):
        return f"Array({self.element!r} x {self.count})"


class Field:
    """One named field of a record."""

    __slots__ = ("name", "descriptor")

    def __init__(self, name: str, descriptor: TypeDescriptor):
        self.name = name
        self.descriptor = descriptor

    def __repr__(self):
        return f"Field({self.name}: {self.descriptor!r})"


class FieldIndex(dict):
    """Field name -> whatever a record keeps per field; a name that is not
    a field raises an error that is both a :class:`TypeDescriptorError`
    and the ``AttributeError`` that ``hasattr`` / ``getattr`` expect."""

    class NoSuchField(TypeDescriptorError, AttributeError):
        pass

    def __init__(self, record_name: str, entries):
        super().__init__(entries)
        self.record_name = record_name

    def __missing__(self, name):
        raise self.NoSuchField(f"record {self.record_name!r} has no field {name!r}")


class RecordDescriptor(TypeDescriptor):
    """A record (struct) of named, heterogeneous fields.

    Layout follows the target architecture's alignment rules: each field is
    placed at the next offset aligned for it, and the record is padded at
    the tail to a multiple of its own alignment (the strictest field
    alignment), exactly as a C compiler would.
    """

    def __init__(self, name: str, fields: List[Field]):
        if not fields:
            raise TypeDescriptorError(f"record {name!r} must have at least one field")
        self.name = name
        self.fields = list(fields)
        #: name -> (position, field, primitive offset)
        self._index = FieldIndex(name, ())
        prim = 0
        for position, field in enumerate(fields):
            if field.name in self._index:
                raise TypeDescriptorError(f"record {name!r}: duplicate field {field.name!r}")
            self._index[field.name] = (position, field, prim)
            prim += field.descriptor.prim_count
        self.prim_count = prim
        self._layout_cache: Dict[str, Tuple[int, int, List[int]]] = {}

    # -- layout ---------------------------------------------------------------

    def _layout(self, arch: Architecture) -> Tuple[int, int, List[int]]:
        """Return (size, align, [field byte offsets]) for ``arch`` (cached)."""
        cached = self._layout_cache.get(arch.name)
        if cached is not None:
            return cached
        offset = 0
        align = 1
        offsets: List[int] = []
        for field in self.fields:
            field_align = field.descriptor.local_align(arch)
            align = max(align, field_align)
            offset = Architecture.align_up(offset, field_align)
            offsets.append(offset)
            offset += field.descriptor.local_size(arch)
        size = Architecture.align_up(offset, align)
        result = (size, align, offsets)
        self._layout_cache[arch.name] = result
        return result

    def local_size(self, arch: Architecture) -> int:
        return self._layout(arch)[0]

    def local_align(self, arch: Architecture) -> int:
        return self._layout(arch)[1]

    def field_local_offset(self, arch: Architecture, name: str) -> int:
        """Byte offset of field ``name`` in ``arch``'s local format."""
        return self._layout(arch)[2][self._index[name][0]]

    def field_prim_offset(self, name: str) -> int:
        """Machine-independent primitive offset of field ``name``."""
        return self._index[name][2]

    def field(self, name: str) -> Field:
        return self._index[name][1]

    def iter_field_layout(self, arch: Architecture):
        """Yield (field, local_byte_offset, prim_offset) in declaration order."""
        prim = 0
        for field, offset in zip(self.fields, self._layout(arch)[2]):
            yield field, offset, prim
            prim += field.descriptor.prim_count

    def type_key(self) -> tuple:
        return (
            "record",
            self.name,
            tuple((field.name, field.descriptor.type_key()) for field in self.fields),
        )

    def __repr__(self):
        return f"Record({self.name}, {len(self.fields)} fields)"


def descriptor_at(descriptor: TypeDescriptor, prim_offset: int) -> TypeDescriptor:
    """The sub-value descriptor whose first primitive unit sits at
    ``prim_offset`` — what a MIP with an interior offset points at.

    Descends through records and arrays; raises if the offset lands in the
    middle of a scalar span but not at a value boundary (impossible for
    offsets produced by pointer swizzling, which always reference a unit,
    but reachable from hand-written MIPs).
    """
    if prim_offset == 0:
        return descriptor
    if not 0 <= prim_offset < descriptor.prim_count:
        raise TypeDescriptorError(
            f"primitive offset {prim_offset} out of range [0, {descriptor.prim_count})")
    if isinstance(descriptor, ArrayDescriptor):
        index, rest = divmod(prim_offset, descriptor.element.prim_count)
        return descriptor_at(descriptor.element, rest)
    if isinstance(descriptor, RecordDescriptor):
        cursor = 0
        for field in descriptor.fields:
            count = field.descriptor.prim_count
            if prim_offset < cursor + count:
                return descriptor_at(field.descriptor, prim_offset - cursor)
            cursor += count
    raise TypeDescriptorError(
        f"primitive offset {prim_offset} is not a value boundary in {descriptor!r}")


def validate_closed(descriptor: TypeDescriptor, _seen=None) -> None:
    """Check every pointer in the type graph has a resolved target."""
    if _seen is None:
        _seen = set()
    if id(descriptor) in _seen:
        return
    _seen.add(id(descriptor))
    if isinstance(descriptor, PointerDescriptor):
        if descriptor.target is None:
            raise TypeDescriptorError(f"unresolved pointer target {descriptor.target_name!r}")
        validate_closed(descriptor.target, _seen)
    elif isinstance(descriptor, ArrayDescriptor):
        validate_closed(descriptor.element, _seen)
    elif isinstance(descriptor, RecordDescriptor):
        for field in descriptor.fields:
            validate_closed(field.descriptor, _seen)
