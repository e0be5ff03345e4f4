"""Machine architecture models.

The paper's whole point is sharing data across *heterogeneous* machines:
x86, Alpha, Sparc, and MIPS boxes differ in byte order, word size, pointer
size, and alignment rules, so the same IDL type has a different local byte
layout on each.  In this reproduction each simulated client declares an
:class:`Architecture`; blocks live in the client's simulated memory in that
architecture's genuine native format (byte order included), and the
translation machinery does real byte-order swaps and alignment-offset
mapping when converting to and from the canonical wire format.

Primitive data units
--------------------
Offsets in MIPs and wire diffs are measured in *primitive data units*
(chars, integers, floats, ...), never bytes — that is what makes them
machine-independent.  :class:`PrimKind` enumerates the units.  A pointer or
a string is a single unit even though its size is machine-dependent
(pointer) or variable (string).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Dict


class PrimKind(Enum):
    """The primitive data units data is addressed in on the wire."""

    CHAR = "char"
    SHORT = "short"
    INT = "int"
    HYPER = "hyper"  # 64-bit integer
    FLOAT = "float"
    DOUBLE = "double"
    POINTER = "pointer"  # local: machine address; wire: MIP string
    STRING = "string"  # local: fixed capacity buffer; wire: length + bytes

    @property
    def is_variable_wire_size(self) -> bool:
        """Pointers and strings have variable wire encodings (MIP / length+data)."""
        return self in (PrimKind.POINTER, PrimKind.STRING)


#: Wire sizes of the fixed-size primitives (canonical big-endian encoding).
WIRE_SIZES: Dict[PrimKind, int] = {
    PrimKind.CHAR: 1,
    PrimKind.SHORT: 2,
    PrimKind.INT: 4,
    PrimKind.HYPER: 8,
    PrimKind.FLOAT: 4,
    PrimKind.DOUBLE: 8,
}

#: numpy dtype codes for the fixed-size primitives.
_NUMPY_CODES: Dict[PrimKind, str] = {
    PrimKind.CHAR: "u1",
    PrimKind.SHORT: "i2",
    PrimKind.INT: "i4",
    PrimKind.HYPER: "i8",
    PrimKind.FLOAT: "f4",
    PrimKind.DOUBLE: "f8",
}

#: struct format characters for the fixed-size primitives.
_STRUCT_CODES: Dict[PrimKind, str] = {
    PrimKind.CHAR: "B",
    PrimKind.SHORT: "h",
    PrimKind.INT: "i",
    PrimKind.HYPER: "q",
    PrimKind.FLOAT: "f",
    PrimKind.DOUBLE: "d",
}


@dataclass(frozen=True)
class Architecture:
    """Byte order, sizes, and alignment rules of one machine type.

    ``max_align`` caps natural alignment (some ABIs align 8-byte doubles to
    4 bytes on 32-bit machines, e.g. the traditional i386 ABI).
    """

    name: str
    endian: str  # "little" or "big"
    word_size: int  # natural word, used for word-by-word page diffing
    pointer_size: int
    max_align: int

    def __post_init__(self):
        if self.endian not in ("little", "big"):
            raise ValueError(f"endian must be 'little' or 'big', not {self.endian!r}")
        if self.word_size not in (4, 8):
            raise ValueError(f"word_size must be 4 or 8, not {self.word_size}")
        if self.pointer_size not in (4, 8):
            raise ValueError(f"pointer_size must be 4 or 8, not {self.pointer_size}")

    # -- sizes and alignment --------------------------------------------------

    def prim_size(self, kind: PrimKind) -> int:
        """Local size in bytes of a fixed-size primitive or pointer."""
        if kind is PrimKind.POINTER:
            return self.pointer_size
        if kind is PrimKind.STRING:
            raise ValueError("string size is per-type (capacity), not per-architecture")
        return WIRE_SIZES[kind]

    def prim_align(self, kind: PrimKind) -> int:
        """Natural alignment of a primitive, capped by the ABI's max_align."""
        if kind is PrimKind.STRING:
            return 1
        return min(self.prim_size(kind), self.max_align)

    @staticmethod
    def align_up(offset: int, alignment: int) -> int:
        return (offset + alignment - 1) // alignment * alignment

    # -- local-format value encoding -------------------------------------------

    def _struct_format(self, kind: PrimKind) -> str:
        prefix = "<" if self.endian == "little" else ">"
        if kind is PrimKind.POINTER:
            return prefix + ("I" if self.pointer_size == 4 else "Q")
        return prefix + _STRUCT_CODES[kind]

    def prim_struct(self, kind: PrimKind) -> struct.Struct:
        """A compiled codec for one primitive kind, for callers that keep it."""
        return struct.Struct(self._struct_format(kind))

    def encode_prim(self, kind: PrimKind, value) -> bytes:
        """Encode one primitive value into this machine's native bytes.

        For CHAR, accepts a one-character string or an int 0..255.  For
        POINTER, the value is a simulated machine address (int); NULL is 0.
        STRING is not handled here (it is a buffer, not a scalar).
        """
        if kind is PrimKind.CHAR and isinstance(value, str):
            value = ord(value)
        return struct.pack(self._struct_format(kind), value)

    def decode_prim(self, kind: PrimKind, data: bytes, offset: int = 0):
        """Decode one primitive value from native bytes at ``offset``."""
        return struct.unpack_from(self._struct_format(kind), data, offset)[0]

    @property
    def numpy_byteorder(self) -> str:
        """The numpy dtype byte-order character for this architecture."""
        return "<" if self.endian == "little" else ">"

    def numpy_dtype(self, kind: PrimKind):
        """The numpy dtype of a fixed-size primitive in local format."""
        import numpy as np

        if kind is PrimKind.POINTER:
            code = "u4" if self.pointer_size == 4 else "u8"
        else:
            code = _NUMPY_CODES[kind]
        return np.dtype(self.numpy_byteorder + code)


# -- the architectures the paper's InterWeave was ported to ---------------------

X86_32 = Architecture(name="x86-32", endian="little", word_size=4, pointer_size=4, max_align=4)
X86_64 = Architecture(name="x86-64", endian="little", word_size=8, pointer_size=8, max_align=8)
ALPHA = Architecture(name="alpha", endian="little", word_size=8, pointer_size=8, max_align=8)
SPARC_V9 = Architecture(name="sparc-v9", endian="big", word_size=8, pointer_size=8, max_align=8)
SPARC_32 = Architecture(name="sparc-32", endian="big", word_size=4, pointer_size=4, max_align=8)
MIPS32 = Architecture(name="mips-32", endian="big", word_size=4, pointer_size=4, max_align=8)

#: Registry of the built-in architectures by name.
ARCHITECTURES: Dict[str, Architecture] = {
    arch.name: arch for arch in (X86_32, X86_64, ALPHA, SPARC_V9, SPARC_32, MIPS32)
}


def get_architecture(name: str) -> Architecture:
    """Look up a built-in architecture by name (raises KeyError if unknown)."""
    try:
        return ARCHITECTURES[name]
    except KeyError:
        raise KeyError(f"unknown architecture {name!r}; known: {sorted(ARCHITECTURES)}") from None
