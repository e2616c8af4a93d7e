"""Branch target buffer tests."""

import pytest

from repro.sim.btb import BranchTargetBuffer


def test_entries_power_of_two():
    with pytest.raises(ValueError):
        BranchTargetBuffer(1000)


def test_cold_predicts_not_taken():
    btb = BranchTargetBuffer(64)
    assert btb.predict(0x1000) == (False, 0)


def test_allocation_on_taken():
    btb = BranchTargetBuffer(64)
    btb.update(0x1000, True, 0x2000)
    taken, target = btb.predict(0x1000)
    assert taken and target == 0x2000


def test_not_taken_branches_not_allocated():
    btb = BranchTargetBuffer(64)
    btb.update(0x1000, False, 0)
    assert btb.predict(0x1000) == (False, 0)


def test_two_bit_hysteresis():
    btb = BranchTargetBuffer(64)
    pc = 0x1000
    btb.update(pc, True, 0x2000)  # allocate, counter=2
    btb.update(pc, True, 0x2000)  # counter=3
    btb.update(pc, False, 0)  # counter=2: still predicts taken
    assert btb.predict(pc)[0]
    btb.update(pc, False, 0)  # counter=1
    assert not btb.predict(pc)[0]


def test_counter_saturation():
    btb = BranchTargetBuffer(64)
    pc = 0x1000
    for _ in range(10):
        btb.update(pc, True, 0x2000)
    # one not-taken cannot flip a saturated counter
    btb.update(pc, False, 0)
    assert btb.predict(pc)[0]


def test_target_update():
    btb = BranchTargetBuffer(64)
    pc = 0x1000
    btb.update(pc, True, 0x2000)
    btb.update(pc, True, 0x3000)  # indirect branch changed target
    assert btb.predict(pc)[1] == 0x3000


def test_index_conflict():
    btb = BranchTargetBuffer(64)
    a = 0x1000
    b = 0x1000 + 64 * 4  # same index, different tag
    btb.update(a, True, 0x2000)
    btb.update(b, True, 0x4000)
    assert btb.predict(b) == (True, 0x4000)
    assert btb.predict(a) == (False, 0)  # evicted


def test_loop_branch_converges():
    """A taken-9-of-10 loop branch should be predicted well."""
    btb = BranchTargetBuffer(1024)
    pc = 0x5000
    mispredicts = 0
    for i in range(100):
        taken = (i % 10) != 9
        ptaken, ptarget = btb.predict(pc)
        wrong = ptaken != taken or (taken and ptarget != 0x6000)
        if wrong:
            mispredicts += 1
        btb.update(pc, taken, 0x6000 if taken else 0)
    assert mispredicts <= 25
