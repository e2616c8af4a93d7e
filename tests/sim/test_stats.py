"""SimStats accounting tests."""

from repro.sim.stats import SimStats


def test_ipc():
    stats = SimStats(cycles=100, instructions=250)
    assert stats.ipc == 2.5
    assert SimStats().ipc == 0.0


def test_summary_mentions_key_counters():
    stats = SimStats(
        cycles=1000,
        instructions=900,
        loads=100,
        stores=50,
        dcache_hits=90,
        dcache_misses=10,
        pred_loads=40,
        pred_spec_dispatched=35,
        pred_success=30,
        calc_loads=20,
        calc_spec_dispatched=18,
        calc_success=15,
    )
    text = stats.summary()
    assert "1000" in text
    assert "predict path" in text
    assert "early-calc path" in text
    assert "0.900" in text  # IPC


def test_summary_omits_unused_paths():
    text = SimStats(cycles=10, instructions=10).summary()
    assert "predict path" not in text
    assert "early-calc path" not in text
