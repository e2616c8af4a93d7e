"""Flat byte-addressed memory and program loading.

The simulated machine has a single flat data address space.  Code lives
at :data:`repro.isa.program.CODE_BASE` and is not readable as data
(Harvard-style, as in the paper's emulation-driven simulator).

Layout::

    0x0000_1000   data segment (globals, laid out by Program.layout)
    0x0040_0000   heap (grown by the mini-C runtime's bump allocator)
    top - 16      initial stack pointer (stack grows down)
"""

from __future__ import annotations

import mmap
import struct

from repro.isa.program import DATA_BASE, Program

HEAP_BASE = 0x0040_0000
DEFAULT_MEM_SIZE = 1 << 24  # 16 MB


class MemoryError_(Exception):
    """Raised on out-of-range or misaligned accesses."""


class Memory:
    """Byte-addressed little-endian memory backed by an anonymous mmap.

    Untouched pages of the mapping read as zero and never become
    resident, so a run costs the memory its program touches, not the
    full image.  A ``bytearray`` would zero-fill every page, and once
    the C allocator reuses freed images instead of fresh mappings, they
    stay resident after the run.
    """

    __slots__ = ("size", "data")

    def __init__(self, size: int = DEFAULT_MEM_SIZE):
        self.size = size
        self.data = mmap.mmap(-1, size)

    # -- word (32-bit) access ------------------------------------------------

    def load_word(self, addr: int) -> int:
        """Load a signed 32-bit word."""
        if addr < 0 or addr + 4 > self.size:
            raise MemoryError_(f"load_word out of range: {addr:#x}")
        value = int.from_bytes(self.data[addr : addr + 4], "little")
        return value - (1 << 32) if value >= (1 << 31) else value

    def store_word(self, addr: int, value: int) -> None:
        """Store the low 32 bits of *value*."""
        if addr < 0 or addr + 4 > self.size:
            raise MemoryError_(f"store_word out of range: {addr:#x}")
        self.data[addr : addr + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")

    # -- byte access -------------------------------------------------------

    def load_byte(self, addr: int) -> int:
        """Load an unsigned byte."""
        if addr < 0 or addr >= self.size:
            raise MemoryError_(f"load_byte out of range: {addr:#x}")
        return self.data[addr]

    def store_byte(self, addr: int, value: int) -> None:
        if addr < 0 or addr >= self.size:
            raise MemoryError_(f"store_byte out of range: {addr:#x}")
        self.data[addr] = value & 0xFF

    # -- double (64-bit float) access ---------------------------------------

    def load_double(self, addr: int) -> float:
        if addr < 0 or addr + 8 > self.size:
            raise MemoryError_(f"load_double out of range: {addr:#x}")
        return struct.unpack_from("<d", self.data, addr)[0]

    def store_double(self, addr: int, value: float) -> None:
        if addr < 0 or addr + 8 > self.size:
            raise MemoryError_(f"store_double out of range: {addr:#x}")
        struct.pack_into("<d", self.data, addr, value)

    # -- bulk access (loader / tests) ------------------------------------------

    def write_bytes(self, addr: int, payload: bytes) -> None:
        if addr < 0 or addr + len(payload) > self.size:
            raise MemoryError_(f"write_bytes out of range: {addr:#x}")
        self.data[addr : addr + len(payload)] = payload

    def read_bytes(self, addr: int, length: int) -> bytes:
        if addr < 0 or addr + length > self.size:
            raise MemoryError_(f"read_bytes out of range: {addr:#x}")
        return bytes(self.data[addr : addr + length])


def load_program(program: Program, size: int = DEFAULT_MEM_SIZE) -> Memory:
    """Create a memory image with the program's data segment initialized."""
    if not program.laid_out:
        program.layout()
    if DATA_BASE + program.data_size > HEAP_BASE:
        raise MemoryError_(
            f"data segment too large: {program.data_size:#x} bytes"
        )
    mem = Memory(size)
    for item in program.data.values():
        mem.write_bytes(item.addr, item.initial_bytes())
    return mem


def initial_sp(size: int = DEFAULT_MEM_SIZE) -> int:
    """Initial stack pointer: 16 bytes below the top, 16-byte aligned."""
    return (size - 16) & ~0xF
