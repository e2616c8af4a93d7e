"""Tests for the optional hardware extensions beyond the paper:
confidence counters on the prediction table (Gonzalez-style) and a
return-address stack."""

import pytest

from repro.isa import (
    DataItem,
    Function,
    Imm,
    Instruction,
    Label,
    LoadSpec,
    Opcode,
    Program,
    Reg,
    Sym,
)
from repro.sim.executor import execute
from repro.sim.machine import EarlyGenConfig, MachineConfig, SelectionMode
from repro.sim.pipeline import TimingSimulator
from repro.sim.predictors import AddressPredictionTable


def I(op, dest=None, srcs=(), target=None, lspec=LoadSpec.N):  # noqa: E743
    return Instruction(op, dest, srcs, target, lspec)


class TestConfidenceCounters:
    def test_validation(self):
        with pytest.raises(ValueError):
            AddressPredictionTable(64, confidence_bits=9)
        with pytest.raises(ValueError):
            EarlyGenConfig(64, 0, table_confidence_bits=-1)

    def test_zero_bits_is_paper_behavior(self):
        plain = AddressPredictionTable(64)
        assert plain.confidence_bits == 0
        plain.update(0x100, 500)
        assert plain.probe(0x100) == 500  # predicts immediately

    def test_functioning_but_wrong_gets_suppressed(self):
        """Short strided runs re-train the Figure 3 machine into the
        functioning state just in time for the next jump, so every
        dispatched prediction is wrong — the exact pattern Gonzalez's
        counters exist to starve."""
        addrs = []
        for run in range(20):
            base = run * 4096
            addrs.extend([base, base + 4, base + 8])

        def run_table(bits):
            table = AddressPredictionTable(64, confidence_bits=bits)
            dispatched = wrong = 0
            for addr in addrs:
                predicted = table.probe(0x100)
                if predicted is not None:
                    dispatched += 1
                    if predicted != addr:
                        wrong += 1
                table.update(0x100, addr)
            return table, dispatched, wrong

        plain, plain_dispatched, plain_wrong = run_table(0)
        conf, conf_dispatched, conf_wrong = run_table(2)
        assert plain_wrong == plain_dispatched > 10  # always wrong
        assert conf.suppressed > 0
        assert conf_wrong < plain_wrong  # wasted accesses eliminated

    def test_strided_load_still_predicts(self):
        table = AddressPredictionTable(64, confidence_bits=2)
        hits = 0
        for i in range(40):
            addr = 0x4000 + i * 8
            if table.probe(0x200) == addr:
                hits += 1
            table.update(0x200, addr)
        assert hits >= 34  # a few extra cold/confidence-warmup misses

    def test_confidence_recovers_after_phase_change(self):
        table = AddressPredictionTable(64, confidence_bits=2)
        addr = 0
        for i in range(12):  # scrambled phase drives confidence to zero
            table.update(0x300, (i * i * 977) & 0xFFFC)
        for i in range(30):  # strided phase
            addr = 0x8000 + i * 4
            table.update(0x300, addr)
        assert table.probe(0x300) == addr + 4

    def test_pipeline_accepts_confidence_config(self):
        p = Program()
        f = Function("main")
        f.append(I(Opcode.LEA, Reg(4), [Sym("arr")]))
        f.append(I(Opcode.MOV, Reg(6), [Imm(0)]))
        f.append(Label("loop"))
        f.append(I(Opcode.LD, Reg(7), [Reg(4), Imm(0)], lspec=LoadSpec.P))
        f.append(I(Opcode.ADD, Reg(5), [Reg(5), Reg(7)]))
        f.append(I(Opcode.ADD, Reg(4), [Reg(4), Imm(4)]))
        f.append(I(Opcode.ADD, Reg(6), [Reg(6), Imm(1)]))
        f.append(I(Opcode.BLT, None, [Reg(6), Imm(50)], "loop"))
        f.append(I(Opcode.HALT))
        p.add_function(f)
        p.add_data(DataItem("arr", 204))
        p.layout()
        trace = execute(p).trace
        config = MachineConfig().with_earlygen(
            EarlyGenConfig(64, 0, SelectionMode.COMPILER,
                           table_confidence_bits=2)
        )
        stats = TimingSimulator(trace, config).run()
        assert stats.pred_success > 30


class TestReturnAddressStack:
    def _recursive_program(self):
        """main calls f(8); f recurses down and returns back up."""
        p = Program()
        main = Function("main")
        main.append(I(Opcode.MOV, Reg(2), [Imm(8)]))
        main.append(I(Opcode.CALL, target="f"))
        main.append(I(Opcode.OUT, None, [Reg(1)]))
        main.append(I(Opcode.HALT))
        p.add_function(main)
        f = Function("f")
        f.append(I(Opcode.SUB, Reg(62), [Reg(62), Imm(16)]))
        f.append(I(Opcode.ST, None, [Reg(63), Reg(62), Imm(0)]))
        f.append(I(Opcode.BLE, None, [Reg(2), Imm(0)], "base"))
        f.append(I(Opcode.SUB, Reg(2), [Reg(2), Imm(1)]))
        f.append(I(Opcode.CALL, target="f"))
        f.append(I(Opcode.ADD, Reg(1), [Reg(1), Imm(1)]))
        f.append(I(Opcode.JMP, target="out"))
        f.append(Label("base"))
        f.append(I(Opcode.MOV, Reg(1), [Imm(0)]))
        f.append(Label("out"))
        f.append(I(Opcode.LD, Reg(63), [Reg(62), Imm(0)]))
        f.append(I(Opcode.ADD, Reg(62), [Reg(62), Imm(16)]))
        f.append(I(Opcode.RET))
        p.add_function(f)
        p.layout()
        return p

    def test_ras_removes_return_mispredicts(self):
        program = self._recursive_program()
        result = execute(program)
        assert result.output == [8]
        trace = result.trace
        without = TimingSimulator(trace, MachineConfig()).run()
        with_ras = TimingSimulator(
            trace, MachineConfig(ras_entries=16)
        ).run()
        assert with_ras.btb_mispredicts < without.btb_mispredicts
        assert with_ras.cycles <= without.cycles

    def test_shallow_ras_overflows_gracefully(self):
        program = self._recursive_program()
        trace = execute(program).trace
        shallow = TimingSimulator(
            trace, MachineConfig(ras_entries=2)
        ).run()
        deep = TimingSimulator(
            trace, MachineConfig(ras_entries=16)
        ).run()
        assert deep.btb_mispredicts <= shallow.btb_mispredicts

    def test_default_machine_has_no_ras(self):
        assert MachineConfig().ras_entries == 0
