"""Type-system unit tests."""

import pytest

from repro.lang.types import (
    CHAR,
    DOUBLE,
    INT,
    VOID,
    ArrayType,
    FuncType,
    PtrType,
    StructType,
    decay,
)


def test_scalar_sizes():
    assert INT.size == 4 and INT.align == 4
    assert CHAR.size == 1 and CHAR.align == 1
    assert DOUBLE.size == 8 and DOUBLE.align == 8
    assert PtrType(INT).size == 4
    assert VOID.size == 0


def test_scalar_predicates():
    assert INT.is_integer and INT.is_scalar and INT.is_arith
    assert CHAR.is_integer
    assert DOUBLE.is_arith and not DOUBLE.is_integer
    assert PtrType(INT).is_scalar and not PtrType(INT).is_arith
    assert not ArrayType(INT, 4).is_scalar


def test_type_equality():
    assert PtrType(INT) == PtrType(INT)
    assert PtrType(INT) != PtrType(CHAR)
    assert ArrayType(INT, 4) == ArrayType(INT, 4)
    assert ArrayType(INT, 4) != ArrayType(INT, 5)
    assert hash(PtrType(INT)) == hash(PtrType(INT))


def test_array_geometry():
    a = ArrayType(INT, 10)
    assert a.size == 40 and a.align == 4
    nested = ArrayType(ArrayType(CHAR, 3), 4)
    assert nested.size == 12


def test_struct_layout_padding():
    s = StructType("mix")
    s.define([("c", CHAR), ("i", INT), ("c2", CHAR)])
    assert s.field("c")[1] == 0
    assert s.field("i")[1] == 4  # aligned up
    assert s.field("c2")[1] == 8
    assert s.size == 12  # padded to align 4
    assert s.align == 4


def test_struct_with_double_field():
    s = StructType("d")
    s.define([("i", INT), ("x", DOUBLE)])
    assert s.field("x")[1] == 8
    assert s.size == 16
    assert s.align == 8


def test_struct_identity_by_name():
    a = StructType("n")
    b = StructType("n")
    assert a == b
    c = StructType("m")
    assert a != c


def test_incomplete_struct_in_field_rejected():
    outer = StructType("outer")
    inner = StructType("inner")  # never defined
    with pytest.raises(ValueError):
        outer.define([("bad", inner)])


def test_decay():
    assert decay(ArrayType(INT, 4)) == PtrType(INT)
    assert decay(INT) == INT
    assert decay(PtrType(INT)) == PtrType(INT)


def test_func_type():
    f = FuncType(INT, [INT, PtrType(CHAR)])
    g = FuncType(INT, [INT, PtrType(CHAR)])
    assert f == g
    assert "int(" in repr(f) or "int" in repr(f)
