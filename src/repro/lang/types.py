"""Type system for mini-C.

Sizes: ``int`` is 4 bytes, ``char`` is 1 byte (unsigned), ``double`` is
8 bytes, pointers are 4 bytes.  Struct fields are laid out in declaration
order with natural alignment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Type:
    """Base class; concrete types are singletons or value objects."""

    size: int = 0
    align: int = 1

    @property
    def is_integer(self) -> bool:
        return isinstance(self, (IntType, CharType))

    @property
    def is_scalar(self) -> bool:
        """Fits in a register: integers, pointers, doubles."""
        return isinstance(self, (IntType, CharType, PtrType, DoubleType))

    @property
    def is_arith(self) -> bool:
        return isinstance(self, (IntType, CharType, DoubleType))

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other)

    def __hash__(self) -> int:
        return hash(type(self))


class VoidType(Type):
    size = 0
    align = 1

    def __repr__(self) -> str:
        return "void"


class IntType(Type):
    size = 4
    align = 4

    def __repr__(self) -> str:
        return "int"


class CharType(Type):
    size = 1
    align = 1

    def __repr__(self) -> str:
        return "char"


class DoubleType(Type):
    size = 8
    align = 8

    def __repr__(self) -> str:
        return "double"


VOID = VoidType()
INT = IntType()
CHAR = CharType()
DOUBLE = DoubleType()


class PtrType(Type):
    size = 4
    align = 4

    def __init__(self, target: Type):
        self.target = target

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PtrType) and self.target == other.target

    def __hash__(self) -> int:
        return hash(("ptr", self.target))

    def __repr__(self) -> str:
        return f"{self.target!r}*"


class ArrayType(Type):
    def __init__(self, elem: Type, length: int):
        self.elem = elem
        self.length = length
        self.size = elem.size * length
        self.align = elem.align

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArrayType)
            and self.elem == other.elem
            and self.length == other.length
        )

    def __hash__(self) -> int:
        return hash(("array", self.elem, self.length))

    def __repr__(self) -> str:
        return f"{self.elem!r}[{self.length}]"


class StructType(Type):
    """A named struct; fields are ``(name, type, offset)`` in order."""

    def __init__(self, name: str):
        self.name = name
        self.fields: List[Tuple[str, Type, int]] = []
        self._by_name: Dict[str, Tuple[Type, int]] = {}
        self.size = 0
        self.align = 1
        self.complete = False

    def define(self, fields: List[Tuple[str, Type]]) -> None:
        """Lay out the fields with natural alignment."""
        offset = 0
        align = 1
        for fname, ftype in fields:
            if ftype.size == 0:
                raise ValueError(f"field {fname} has incomplete type")
            offset = (offset + ftype.align - 1) // ftype.align * ftype.align
            self.fields.append((fname, ftype, offset))
            self._by_name[fname] = (ftype, offset)
            offset += ftype.size
            align = max(align, ftype.align)
        self.size = (offset + align - 1) // align * align
        self.align = align
        self.complete = True

    def field(self, name: str) -> Optional[Tuple[Type, int]]:
        """``(type, offset)`` of a field, or None."""
        return self._by_name.get(name)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StructType) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("struct", self.name))

    def __repr__(self) -> str:
        return f"struct {self.name}"


class FuncType(Type):
    """Function signature (not a value type)."""

    def __init__(self, ret: Type, params: List[Type]):
        self.ret = ret
        self.params = params

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FuncType)
            and self.ret == other.ret
            and self.params == other.params
        )

    def __hash__(self) -> int:
        return hash(("func", self.ret, tuple(self.params)))

    def __repr__(self) -> str:
        params = ", ".join(repr(p) for p in self.params)
        return f"{self.ret!r}({params})"


def decay(t: Type) -> Type:
    """Array-to-pointer decay, as in C expression contexts."""
    if isinstance(t, ArrayType):
        return PtrType(t.elem)
    return t

