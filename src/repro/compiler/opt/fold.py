"""Constant folding of integer ALU operations (32-bit semantics)."""

from __future__ import annotations

from typing import Optional

from repro.isa.opcodes import Opcode

_MASK = 0xFFFFFFFF


def wrap(value: int) -> int:
    """*value* as a signed 32-bit integer."""
    value &= _MASK
    return value - (1 << 32) if value >= (1 << 31) else value


def fold(opcode: Opcode, a: int, b: int) -> Optional[int]:
    """Evaluate ``opcode(a, b)`` with 32-bit wraparound, or None."""
    if opcode is Opcode.ADD:
        return wrap(a + b)
    if opcode is Opcode.SUB:
        return wrap(a - b)
    if opcode is Opcode.MUL:
        return wrap(a * b)
    if opcode is Opcode.AND:
        return a & b
    if opcode is Opcode.OR:
        return a | b
    if opcode is Opcode.XOR:
        return wrap(a ^ b)
    if opcode is Opcode.SLL:
        return wrap(a << (b & 31))
    if opcode is Opcode.SRL:
        return wrap((a & _MASK) >> (b & 31))
    if opcode is Opcode.SRA:
        return wrap(a >> (b & 31))
    if opcode is Opcode.CMPEQ:
        return 1 if a == b else 0
    if opcode is Opcode.CMPNE:
        return 1 if a != b else 0
    if opcode is Opcode.CMPLT:
        return 1 if a < b else 0
    if opcode is Opcode.CMPLE:
        return 1 if a <= b else 0
    if opcode is Opcode.CMPGT:
        return 1 if a > b else 0
    if opcode is Opcode.CMPGE:
        return 1 if a >= b else 0
    if opcode is Opcode.CMPLTU:
        return 1 if (a & _MASK) < (b & _MASK) else 0
    if opcode is Opcode.DIV and b != 0:
        q = abs(a) // abs(b)
        return wrap(-q if (a < 0) != (b < 0) else q)
    if opcode is Opcode.REM and b != 0:
        q = abs(a) // abs(b)
        q = -q if (a < 0) != (b < 0) else q
        return wrap(a - q * b)
    return None


def fold_branch(opcode: Opcode, a: int, b: int) -> Optional[bool]:
    """Evaluate a conditional branch on constants, or None."""
    if opcode is Opcode.BEQ:
        return a == b
    if opcode is Opcode.BNE:
        return a != b
    if opcode is Opcode.BLT:
        return a < b
    if opcode is Opcode.BLE:
        return a <= b
    if opcode is Opcode.BGT:
        return a > b
    if opcode is Opcode.BGE:
        return a >= b
    return None
