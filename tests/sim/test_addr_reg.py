"""R_addr and BRIC-style register cache tests."""

import pytest

from repro.sim.addr_reg import RAddr, RegisterCache


class TestRAddr:
    def test_unbound_misses(self):
        r = RAddr()
        assert not r.probe(5)

    def test_bind_then_hit(self):
        r = RAddr()
        r.bind(5)
        assert r.probe(5)
        assert not r.probe(6)

    def test_binding_switch(self):
        """A load that just switched the binding cannot itself hit —
        the paper's "binding has just been switched" hazard."""
        r = RAddr()
        r.bind(5)
        # a load with base r6 probes (miss), then rebinds
        assert not r.probe(6)
        r.bind(6)
        assert r.probe(6)
        assert not r.probe(5)


class TestRegisterCache:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            RegisterCache(0)

    def test_insert_and_probe(self):
        c = RegisterCache(2)
        c.insert(1)
        c.insert(2)
        assert c.probe(1) and c.probe(2)
        assert not c.probe(3)

    def test_lru_eviction(self):
        c = RegisterCache(2)
        c.insert(1)
        c.insert(2)
        c.probe(1)  # refresh 1 -> 2 is now LRU
        c.insert(3)
        assert 2 not in c
        assert 1 in c and 3 in c

    def test_insert_existing_refreshes(self):
        c = RegisterCache(2)
        c.insert(1)
        c.insert(2)
        c.insert(1)  # refresh, no eviction
        c.insert(3)  # evicts 2
        assert 1 in c and 3 in c and 2 not in c

    def test_capacity_one_behaves_like_raddr(self):
        c = RegisterCache(1)
        c.insert(5)
        assert c.probe(5)
        c.insert(6)
        assert not c.probe(5)
        assert c.probe(6)

    def test_len(self):
        c = RegisterCache(4)
        for r in (1, 2, 3):
            c.insert(r)
        assert len(c) == 3
