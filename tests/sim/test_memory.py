"""Flat-memory model tests."""

import os

import pytest

from repro.isa import DataItem, Function, Instruction, Opcode, Program
from repro.sim.memory import (
    DEFAULT_MEM_SIZE,
    HEAP_BASE,
    Memory,
    MemoryError_,
    initial_sp,
    load_program,
)


def test_word_round_trip():
    mem = Memory(4096)
    mem.store_word(100, 0x12345678)
    assert mem.load_word(100) == 0x12345678


def test_word_sign_extension():
    mem = Memory(4096)
    mem.store_word(0, -1)
    assert mem.load_word(0) == -1
    mem.store_word(4, 0x80000000)
    assert mem.load_word(4) == -(1 << 31)


def test_little_endian_layout():
    mem = Memory(4096)
    mem.store_word(0, 0x0A0B0C0D)
    assert mem.load_byte(0) == 0x0D
    assert mem.load_byte(3) == 0x0A


def test_byte_round_trip():
    mem = Memory(4096)
    mem.store_byte(7, 0x1FF)  # masked to 8 bits
    assert mem.load_byte(7) == 0xFF


def test_double_round_trip():
    mem = Memory(4096)
    mem.store_double(16, 3.14159)
    assert mem.load_double(16) == 3.14159


def test_bounds_checks():
    mem = Memory(64)
    with pytest.raises(MemoryError_):
        mem.load_word(62)
    with pytest.raises(MemoryError_):
        mem.store_word(-4, 0)
    with pytest.raises(MemoryError_):
        mem.load_byte(64)
    with pytest.raises(MemoryError_):
        mem.store_double(60, 1.0)


def test_bulk_access():
    mem = Memory(64)
    mem.write_bytes(8, b"hello")
    assert mem.read_bytes(8, 5) == b"hello"
    with pytest.raises(MemoryError_):
        mem.write_bytes(62, b"abc")


def test_load_program_initializes_data():
    p = Program()
    f = Function("main")
    f.append(Instruction(Opcode.HALT))
    p.add_function(f)
    p.add_data(DataItem("tbl", 8, init=[7, 9]))
    mem = load_program(p)
    addr = p.data_addr("tbl")
    assert mem.load_word(addr) == 7
    assert mem.load_word(addr + 4) == 9


def test_initial_sp_alignment():
    sp = initial_sp(DEFAULT_MEM_SIZE)
    assert sp % 16 == 0
    assert sp < DEFAULT_MEM_SIZE
    assert sp > HEAP_BASE


def _resident_bytes():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")


@pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                    reason="needs Linux /proc")
def test_untouched_memory_is_not_resident():
    """A fresh image costs the pages a program touches, not its size."""
    before = _resident_bytes()
    mem = Memory(DEFAULT_MEM_SIZE)
    mem.store_word(initial_sp(), 1)
    assert _resident_bytes() - before < DEFAULT_MEM_SIZE // 4
    assert mem.load_word(HEAP_BASE) == 0
