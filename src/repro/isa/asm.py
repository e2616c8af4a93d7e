"""Textual assembler for the reproduction ISA.

Parses the same syntax :meth:`repro.isa.program.Function.dump` emits, so
compiled listings round-trip, plus data directives::

    .entry main              ; optional, defaults to "main"
    .data tbl 16 = 1 2 3 4   ; name, size in bytes, optional word inits
    .ascii msg "hi there"    ; NUL-terminated string data

    main:
        lea r4, tbl
        ld_p r5, r4(0)       ; load specifiers via the _n/_p/_e suffix
        add r5, r5, 1
        st r5, r4(4)
        out r5
        halt

Instruction syntax: ``mnemonic dest, src...`` with memory operands as
``base(disp)`` where disp is a register, an integer, or a data symbol
(``sym`` / ``sym+off``).  Every line may carry a ``;`` comment.  Labels
end with ``:``.  Functions are introduced by ``.func name``; without
one, the first label opens the (single) function.  A label line naming
the current, still-empty function is accepted as its redundant header,
so :func:`format_program` output round-trips.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.isa.instruction import Imm, Instruction, Reg, Sym
from repro.isa.opcodes import LoadSpec, Opcode
from repro.isa.program import DataItem, Function, Label, Program
from repro.isa.registers import parse_reg_name


class AsmError(ValueError):
    """Raised on malformed assembly, with the line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


_LOAD_SPECS = {
    "ld_n": (Opcode.LD, LoadSpec.N),
    "ld_p": (Opcode.LD, LoadSpec.P),
    "ld_e": (Opcode.LD, LoadSpec.E),
    "ldb_n": (Opcode.LDB, LoadSpec.N),
    "ldb_p": (Opcode.LDB, LoadSpec.P),
    "ldb_e": (Opcode.LDB, LoadSpec.E),
    "fld_n": (Opcode.FLD, LoadSpec.N),
    "fld_p": (Opcode.FLD, LoadSpec.P),
    "fld_e": (Opcode.FLD, LoadSpec.E),
    "ld": (Opcode.LD, LoadSpec.N),
    "ldb": (Opcode.LDB, LoadSpec.N),
    "fld": (Opcode.FLD, LoadSpec.N),
}

_OPCODES_BY_NAME = {op.value: op for op in Opcode}

_MEM_RE = re.compile(r"^(\w+)\(([^)]+)\)$")
_LABEL_RE = re.compile(r"^([A-Za-z_][\w.$]*):$")
_INT_RE = re.compile(r"^-?(0x[0-9a-fA-F]+|\d+)$")
_SYM_RE = re.compile(r"^([A-Za-z_][\w.$]*)(?:\+(\d+))?$")


def _parse_int(text: str) -> int:
    return int(text, 0)


class Assembler:
    """Single-use assembler for one source text."""

    def __init__(self, source: str):
        self.source = source
        self.program: Optional[Program] = None

    # -- operand parsing ------------------------------------------------------

    def _operand(self, text: str, line: int):
        text = text.strip()
        if _INT_RE.match(text):
            return Imm(_parse_int(text))
        try:
            bank, index = parse_reg_name(text)
            return Reg(index, bank)
        except ValueError:
            pass
        match = _SYM_RE.match(text)
        if match:
            return Sym(match.group(1), int(match.group(2) or 0))
        raise AsmError(f"bad operand {text!r}", line)

    def _mem_operands(self, text: str, line: int):
        """Parse ``base(disp)`` into (base Reg, disp operand)."""
        match = _MEM_RE.match(text.strip())
        if not match:
            raise AsmError(f"bad memory operand {text!r}", line)
        base = self._operand(match.group(1), line)
        if not isinstance(base, Reg):
            raise AsmError(f"memory base must be a register: {text!r}", line)
        disp = self._operand(match.group(2), line)
        return base, disp

    # -- line parsing ---------------------------------------------------------

    def _split_operands(self, rest: str) -> List[str]:
        return [part.strip() for part in rest.split(",") if part.strip()]

    def _instruction(self, mnemonic: str, rest: str, line: int) -> Instruction:
        parts = self._split_operands(rest)

        if mnemonic in _LOAD_SPECS:
            opcode, spec = _LOAD_SPECS[mnemonic]
            if len(parts) != 2:
                raise AsmError("loads take 'dest, base(disp)'", line)
            dest = self._operand(parts[0], line)
            if not isinstance(dest, Reg):
                raise AsmError("load destination must be a register", line)
            base, disp = self._mem_operands(parts[1], line)
            return Instruction(opcode, dest, [base, disp], lspec=spec)

        opcode = _OPCODES_BY_NAME.get(mnemonic)
        if opcode is None:
            raise AsmError(f"unknown mnemonic {mnemonic!r}", line)

        if opcode in (Opcode.ST, Opcode.STB, Opcode.FST):
            if len(parts) != 2:
                raise AsmError("stores take 'value, base(disp)'", line)
            value = self._operand(parts[0], line)
            base, disp = self._mem_operands(parts[1], line)
            return Instruction(opcode, None, [value, base, disp])

        if opcode in (Opcode.JMP, Opcode.CALL):
            if len(parts) != 1:
                raise AsmError(f"{mnemonic} takes one label", line)
            return Instruction(opcode, target=parts[0])

        if opcode is Opcode.RET or opcode is Opcode.HALT or opcode is Opcode.NOP:
            if parts:
                raise AsmError(f"{mnemonic} takes no operands", line)
            return Instruction(opcode)

        if opcode in (
            Opcode.BEQ, Opcode.BNE, Opcode.BLT,
            Opcode.BLE, Opcode.BGT, Opcode.BGE,
        ):
            if len(parts) != 3:
                raise AsmError("branches take 'a, b, label'", line)
            a = self._operand(parts[0], line)
            b = self._operand(parts[1], line)
            return Instruction(opcode, None, [a, b], target=parts[2])

        if opcode in (Opcode.OUT, Opcode.OUTC):
            if len(parts) != 1:
                raise AsmError(f"{mnemonic} takes one operand", line)
            return Instruction(opcode, None, [self._operand(parts[0], line)])

        # ALU forms: dest, src [, src2]
        if not parts:
            raise AsmError(f"{mnemonic} needs operands", line)
        dest = self._operand(parts[0], line)
        if not isinstance(dest, Reg):
            raise AsmError("destination must be a register", line)
        srcs = [self._operand(part, line) for part in parts[1:]]
        return Instruction(opcode, dest, srcs)

    # -- directives -------------------------------------------------------------

    def _directive(self, program: Program, text: str, line: int) -> None:
        parts = text.split(None, 2)
        name = parts[0]
        if name == ".entry":
            if len(parts) != 2:
                raise AsmError(".entry takes a function name", line)
            program.entry = parts[1]
        elif name == ".data":
            if len(parts) < 3:
                raise AsmError(".data takes 'name size [= words]'", line)
            item_name = parts[1]
            rest = parts[2]
            if "=" in rest:
                size_text, _, init_text = rest.partition("=")
                words = [
                    _parse_int(word) for word in init_text.split()
                ]
                init: Optional[List[int]] = words
            else:
                size_text, init = rest, None
            try:
                size = _parse_int(size_text.strip())
            except ValueError:
                raise AsmError(f"bad .data size {size_text!r}", line) from None
            program.add_data(DataItem(item_name, size, init))
        elif name == ".func":
            if len(parts) != 2:
                raise AsmError(".func takes a function name", line)
            self._open_function(program, parts[1])
        elif name == ".ascii":
            match = re.match(r'^\.ascii\s+(\w+)\s+"(.*)"$', text)
            if not match:
                raise AsmError('.ascii takes: name "text"', line)
            raw = (
                match.group(2)
                .replace("\\n", "\n")
                .replace("\\t", "\t")
                .replace("\\\\", "\\")
                .encode("latin-1")
                + b"\x00"
            )
            program.add_data(DataItem(match.group(1), len(raw), raw, 1))
        else:
            raise AsmError(f"unknown directive {name!r}", line)

    # -- assembly ---------------------------------------------------------------

    def _open_function(self, program: Program, name: str) -> None:
        self._current = Function(name)
        program.add_function(self._current)

    def assemble(self) -> Program:
        program = Program()
        self._current: Optional[Function] = None

        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            text = raw.split(";", 1)[0].strip()
            if not text:
                continue
            if text.startswith("."):
                self._directive(program, text, line_no)
                continue
            label_match = _LABEL_RE.match(text)
            if label_match:
                name = label_match.group(1)
                current = self._current
                if current is None:
                    self._open_function(program, name)
                elif name == current.name and not current.body:
                    pass  # redundant function-header label
                else:
                    current.append(Label(name))
                continue
            mnemonic, _, rest = text.partition(" ")
            inst = self._instruction(mnemonic.strip(), rest.strip(), line_no)
            if self._current is None:
                raise AsmError("instruction before any label", line_no)
            self._current.append(inst)

        if self._current is None:
            raise AsmError("no code in source", 0)
        program.layout()
        return program


def parse_asm(source: str) -> Program:
    """Assemble *source* into a laid-out :class:`Program`."""
    return Assembler(source).assemble()


def format_program(program: Program) -> str:
    """Render a program back to assembly (data directives + code)."""
    lines: List[str] = [f".entry {program.entry}"]
    for item in program.data.values():
        init = item.init
        if init is None:
            lines.append(f".data {item.name} {item.size}")
        elif isinstance(init, bytes):
            text = init.rstrip(b"\x00").decode("latin-1")
            escaped = (
                text.replace("\\", "\\\\")
                .replace("\n", "\\n")
                .replace("\t", "\\t")
            )
            lines.append(f'.ascii {item.name} "{escaped}"')
        else:
            words = " ".join(str(word) for word in init)
            lines.append(f".data {item.name} {item.size} = {words}")
    lines.append("")
    for func in program.functions.values():
        lines.append(f".func {func.name}")
        lines.append(func.dump())
        lines.append("")
    return "\n".join(lines)
