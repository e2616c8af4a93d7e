"""The PC-indexed address prediction table (Figure 3 of the paper).

Each entry holds four fields — tag, predicted address (PA), stride (ST),
and stride confidence (STC) — and is in one of two states, *functioning*
or *learning*.  The transitions implemented here follow Figure 3 and the
accompanying text:

* **Replace** (tag mismatch): the entry is reallocated with ``PA = CA``,
  ``ST = 0``, ``STC = 1``, state *functioning*.  A brand-new entry thus
  predicts a constant address until a different address is seen.
* **Correct** (functioning, ``PA == CA``): ``PA = CA + ST``; ST and STC
  unchanged.
* **New_Stride** (functioning, ``PA != CA``): ``ST = CA - PA``,
  ``STC = 0``, state becomes *learning*.  PA tracks the last seen
  address (``PA = CA``) so that the stride can be verified against the
  *next* access — the paper's "the stride confidence will not be built
  until the same stride is seen in two consecutive instances".
* **Verified_Stride** (learning, ``CA - PA == ST``): ``PA = CA + ST``,
  ``STC = 1``, state returns to *functioning*.
* learning with ``CA - PA != ST``: stay *learning*, ``ST = CA - PA``,
  and PA again tracks the last address.

A prediction is produced only by a *functioning* entry (``STC == 1``);
in the learning state PA holds the previous address, not a prediction,
and the hardware makes no prediction — exactly as "if the table access
is a miss, no prediction will be made" covers the cold case.

Contract — relied on by the stream-precompute fast path
(:mod:`repro.sim.precompute`), which replays the table state machine
outside the timing loop, and pinned by
``tests/sim/test_counter_semantics.py``:

* :meth:`AddressPredictionTable.probe` only reads the table;
* :meth:`AddressPredictionTable.update` is unconditional per routed
  load, so the table state evolves identically whether or not the
  prediction was dispatched (dispatch is a port question, not a table
  question);
* the probe/update pair per routed load depends only on the PC/address
  sequence of routed loads, never on cycle timing.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Dict, Optional, Tuple

from repro.sim.predictors.base import Predictor

FUNCTIONING = 0
LEARNING = 1


class TableEntry:
    """One address-table entry: tag, PA, ST, STC, and the state bit."""

    __slots__ = ("tag", "pa", "st", "stc", "state")

    def __init__(self, tag: int, ca: int):
        self.allocate(tag, ca)

    def allocate(self, tag: int, ca: int) -> None:
        """(Re)allocate for a new static load: the Replace arc."""
        self.tag = tag
        self.pa = ca
        self.st = 0
        self.stc = 1
        self.state = FUNCTIONING

    def predict(self) -> Optional[int]:
        """The predicted effective address, or None while learning."""
        if self.state == FUNCTIONING:
            return self.pa
        return None

    def update(self, ca: int) -> None:
        """Advance the state machine with the computed address *ca*."""
        if self.state == FUNCTIONING:
            if self.pa == ca:
                self.pa = ca + self.st  # Correct
            else:
                self.st = ca - self.pa  # New_Stride
                self.stc = 0
                self.pa = ca
                self.state = LEARNING
        else:
            if ca - self.pa == self.st:
                self.pa = ca + self.st  # Verified_Stride
                self.stc = 1
                self.state = FUNCTIONING
            else:
                self.st = ca - self.pa
                self.pa = ca


class AddressPredictionTable(Predictor):
    """Direct-mapped, PC-indexed table of :class:`TableEntry`.

    This is the reference backend (``name="stride"``) — the paper's
    own design: every functioning entry predicts.
    """

    name = "stride"
    trains_on_demand = False

    __slots__ = ("_index_mask", "_index_bits", "_table")

    def __init__(self, entries: int):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("table entries must be a positive power of two")
        self._index_mask = entries - 1
        self._index_bits = entries.bit_length() - 1
        self._table: list = [None] * entries

    def _split(self, pc: int) -> Tuple[int, int]:
        """``(index, tag)`` of *pc* — the ONLY split in the class.

        Probe and update both route through this method, so the two
        stages can never disagree on which entry a PC maps to or which
        tag it carries.
        """
        word = pc >> 2
        return word & self._index_mask, word >> self._index_bits

    def lookup(self, pc: int) -> Tuple[int, Optional[TableEntry]]:
        """``(index, entry)`` for *pc*.

        *entry* is the resident :class:`TableEntry` when its tag matches
        *pc*, else ``None``: a miss, on which :meth:`update` takes the
        Replace arc.  The gated backends read their per-entry state by
        the same index.
        """
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is None or entry.tag != tag:
            return index, None
        return index, entry

    def probe(self, pc: int) -> Optional[int]:
        """ID1-stage probe: the predicted address, or None.

        None means a table miss or a learning-state entry; in both
        cases no speculative access is dispatched for this load.
        """
        entry = self.lookup(pc)[1]
        return None if entry is None else entry.predict()

    def update(self, pc: int, ca: int,
               demand_hit: Optional[bool] = None) -> None:
        """MEM-stage update with the computed address *ca*.

        Allocates (Replace arc) on a miss.  ``demand_hit`` is accepted
        for protocol uniformity and ignored (the stride table trains on
        addresses, not cache outcomes).
        """
        index, tag = self._split(pc)
        resident = self._table[index]
        if resident is not None and resident.tag == tag:
            resident.update(ca)
            return
        if resident is None:
            self._table[index] = TableEntry(tag, ca)
        else:
            resident.allocate(tag, ca)


class UnboundedOutcomes:
    """The unbounded Figure 3 outcome of every dynamic load of a trace.

    This is the paper's Table 2 methodology, "individual operation
    prediction... not affected by the limitations of a prediction
    cache", and the one record of the address profile: Tables 2–4, the
    Section 4.3 reclassification and the precompute's prediction
    streams all read it (:mod:`repro.profiling`).

    ``codes[li]`` is the outcome of the ``li``-th dynamic load, in the
    bits of the precompute's prediction stream: 0 no prediction (the
    load's first instance, or a learning entry), 2 a wrong prediction,
    6 a correct one.  ``wrong_at`` / ``wrong_pa`` hold the load
    ordinals and predicted addresses of the wrong predictions, in trace
    order.  ``per_load`` maps each executed load uid to
    ``(instances, correct predictions)`` and ``first`` to the ordinal
    of its first instance.

    The record is shared by every reader of the trace and is never
    written after the pass: a caller that wants other counters builds
    a new instance.
    """

    __slots__ = ("codes", "wrong_at", "wrong_pa", "per_load", "first")

    def __init__(self, codes: bytes, wrong_at: array, wrong_pa: array,
                 per_load: Dict[int, tuple], first: Dict[int, int]):
        self.codes = codes
        self.wrong_at = wrong_at
        self.wrong_pa = wrong_pa
        self.per_load = per_load
        self.first = first


def unbounded_outcomes(trace) -> UnboundedOutcomes:
    """The unbounded Figure 3 pass over *trace*'s loads.

    Each static load gets its own :class:`TableEntry`, fed every
    instance in trace order, so the codes are what a PC-indexed table
    gives a load that is probed at every instance and owns its table
    entry.  The address profile and the precompute's prediction
    streams both read this pass; it runs once per trace and lives on
    the trace (``Trace.unbounded``).
    """
    out = trace.unbounded
    if out is not None:
        return out
    flat = trace.program.flat
    is_load = bytes([inst.is_load for inst in flat])
    uids = trace.uids
    eas = trace.eas
    entries: list = [None] * len(flat)
    seen = [0] * len(flat)
    hits = [0] * len(flat)
    first: Dict[int, int] = {}
    codes = bytearray()
    put = codes.append
    wrong_at = array("I")
    wrong_pa = array("q")
    positions = compress(range(len(uids)), map(is_load.__getitem__, uids))
    for li, i in enumerate(positions):
        uid = uids[i]
        ea = eas[i]
        seen[uid] += 1
        entry = entries[uid]
        if entry is None:
            entries[uid] = TableEntry(0, ea)
            first[uid] = li
            put(0)
            continue
        if entry.state != FUNCTIONING:
            put(0)  # learning: no prediction
        elif entry.pa == ea:
            put(6)
            hits[uid] += 1
        else:
            put(2)
            wrong_at.append(li)
            wrong_pa.append(entry.pa)
        entry.update(ea)
    out = trace.unbounded = UnboundedOutcomes(
        bytes(codes), wrong_at, wrong_pa,
        {uid: (n, hits[uid]) for uid, n in enumerate(seen) if n}, first,
    )
    return out
