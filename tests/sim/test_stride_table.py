"""Figure 3 state-machine tests: exhaustive transition coverage plus
behavioural checks for the bounded table and the unbounded profiler."""

import pytest

from repro.isa import parse_asm
from repro.sim.predictors import (
    FUNCTIONING,
    LEARNING,
    AddressPredictionTable,
    TableEntry,
)
from repro.profiling import AddressProfile
from repro.sim.predictors.stride import unbounded_outcomes
from repro.sim.trace import Trace


class TestTableEntry:
    def test_allocation_is_replace_arc(self):
        e = TableEntry(tag=1, ca=100)
        assert (e.pa, e.st, e.stc, e.state) == (100, 0, 1, FUNCTIONING)

    def test_correct_arc_constant_address(self):
        e = TableEntry(1, 100)
        assert e.predict() == 100
        e.update(100)  # Correct: PA = CA + ST = 100
        assert (e.pa, e.st, e.stc, e.state) == (100, 0, 1, FUNCTIONING)

    def test_new_stride_arc(self):
        e = TableEntry(1, 100)
        e.update(104)  # PA(100) != CA(104)
        assert e.state == LEARNING
        assert e.st == 4
        assert e.stc == 0
        assert e.predict() is None  # no prediction while learning

    def test_verified_stride_arc(self):
        e = TableEntry(1, 100)
        e.update(104)  # -> learning, ST=4
        e.update(108)  # CA-PA == ST -> Verified_Stride
        assert e.state == FUNCTIONING
        assert e.stc == 1
        assert e.pa == 112  # CA + ST
        assert e.predict() == 112

    def test_learning_mismatch_stays_learning(self):
        e = TableEntry(1, 100)
        e.update(104)  # learning, ST=4
        e.update(120)  # CA-PA = 16 != 4
        assert e.state == LEARNING
        assert e.st == 16
        e.update(136)  # 136-120 == 16 -> verified
        assert e.state == FUNCTIONING
        assert e.pa == 152

    def test_strided_stream_predicts_after_training(self):
        e = TableEntry(1, 0)
        correct = 0
        addr = 0
        for _ in range(20):
            addr += 8
            if e.predict() == addr:
                correct += 1
            e.update(addr)
        # one New_Stride miss + one learning step, then all correct
        assert correct == 18

    def test_functioning_correct_advances_by_stride(self):
        e = TableEntry(1, 0)
        e.update(4)
        e.update(8)  # verified, ST=4, PA=12
        e.update(12)  # correct -> PA=16
        assert e.pa == 16

    def test_two_consecutive_instances_required(self):
        """The paper: "the stride confidence will not be built until the
        same stride is seen in two consecutive instances"."""
        e = TableEntry(1, 0)
        e.update(4)  # stride 4 seen once -> learning
        assert e.stc == 0
        e.update(8)  # stride 4 seen twice -> confident
        assert e.stc == 1


class TestAddressPredictionTable:
    def test_size_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            AddressPredictionTable(100)
        with pytest.raises(ValueError):
            AddressPredictionTable(0)

    def test_cold_probe_misses(self):
        t = AddressPredictionTable(64)
        assert t.probe(0x1000) is None

    def test_probe_update_cycle(self):
        t = AddressPredictionTable(64)
        pc = 0x1000
        t.update(pc, 100, None)
        assert t.probe(pc) == 100  # constant-address prediction
        t.update(pc, 100, 100)
        assert t.correct == 1

    def test_conflict_replaces_entry(self):
        t = AddressPredictionTable(64)
        pc_a = 0x1000
        pc_b = 0x1000 + 64 * 4  # same index, different tag
        t.update(pc_a, 100, None)
        assert t.probe(pc_a) == 100
        t.update(pc_b, 555, None)  # Replace arc
        assert t.probe(pc_b) == 555
        assert t.probe(pc_a) is None  # evicted

    def test_distinct_indices_do_not_conflict(self):
        t = AddressPredictionTable(64)
        t.update(0x1000, 100, None)
        t.update(0x1004, 200, None)
        assert t.probe(0x1000) == 100
        assert t.probe(0x1004) == 200

    def test_strided_load_through_table(self):
        t = AddressPredictionTable(256)
        pc = 0x2000
        hits = 0
        for i in range(50):
            addr = 0x8000 + i * 4
            if t.probe(pc) == addr:
                hits += 1
            t.update(pc, addr, None)
        assert hits >= 47

    def test_reset(self):
        t = AddressPredictionTable(64)
        t.update(0x1000, 100, None)
        t.reset()
        assert t.probe(0x1000) is None
        assert t.probes == 1  # counter restarted (this probe)


_TWO_LOADS = parse_asm("""
main:
    ld_n r1, r4(0)
    ld_n r2, r4(4)
    halt
""")
A, B = (u for u, inst in enumerate(_TWO_LOADS.flat) if inst.is_load)


def unbounded(accesses):
    """The unbounded pass over a trace of ``(load uid, address)``
    accesses, and the address profile that reads it."""
    trace = Trace(_TWO_LOADS, [u for u, _ in accesses],
                  [ea for _, ea in accesses])
    outcomes = unbounded_outcomes(trace)
    return outcomes, AddressProfile(_TWO_LOADS, outcomes)


class TestUnboundedPredictor:
    """The unbounded per-load prediction (Table 2's methodology), read
    through the address profile."""

    def test_per_load_isolation(self):
        # load A strided, load B address-scrambled
        _, u = unbounded([
            access for i in range(40) for access in (
                (A, 0x1000 + i * 4),
                (B, (i * i * 2654435761) & 0xFFFC),
            )
        ])
        assert u.rate(A) > 0.9
        assert u.rate(B) < 0.2

    def test_rate_of_unknown_load(self):
        _, u = unbounded([(A, 0x4000)])
        assert u.rate(99) == 0.0
        assert u.rate(B) == 0.0 and u.dynamic_count(B) == 0

    def test_constant_address(self):
        _, u = unbounded([(A, 0x4000)] * 10)
        assert u.rate(A) == 0.9  # all but the cold first access

    def test_overall_rate(self):
        outcomes, u = unbounded([(A, i * 8) for i in range(10)])
        assert 0 < outcomes.codes.count(6) / u.dynamic_loads < 1
        assert u.dynamic_loads == u.dynamic_count(A) == 10

    def test_first_instance_is_cold_then_constant_predicted(self):
        outcomes, u = unbounded([(A, 100), (A, 100)])
        assert outcomes.codes == bytes([0, 6])  # cold, then predicted
        assert outcomes.first == {A: 0}
        assert outcomes.per_load == {A: (2, 1)}
        assert u.predictor is outcomes
