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

Counter semantics — a contract relied on by the stream-precompute fast
path (:mod:`repro.sim.precompute`), which replays the table state
machine outside the timing loop, and pinned by
``tests/sim/test_counter_semantics.py``:

* every :meth:`AddressPredictionTable.probe` counts exactly one probe,
  at most one tag hit, and at most one of prediction/suppressed;
* :meth:`AddressPredictionTable.update` is unconditional per routed
  load — it counts ``correct`` only for a paired probe that predicted,
  and the table state evolves identically whether or not the prediction
  was dispatched (dispatch is a port question, not a table question);
* the probe/update pair per routed load depends only on the PC/address
  sequence of routed loads, never on cycle timing.
"""

from __future__ import annotations

from array import array
from itertools import compress
from typing import Dict, Optional

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
    own design.

    ``confidence_bits`` is an *extension* beyond the paper: Gonzalez and
    Gonzalez [5] add saturating counters "to prevent predictions for
    unpredictable loads after repeated incorrect predictions".  With
    ``confidence_bits=0`` (the paper's design) every functioning entry
    predicts; with ``confidence_bits=n`` an entry also needs its n-bit
    counter *above* the midpoint.

    Confidence boundary semantics (deliberate, pinned by
    ``tests/sim/test_counter_semantics.py`` boundary tests):

    * the counter saturates in ``[0, 2**n - 1]``; a probe is suppressed
      when it is at or below the midpoint ``(2**n - 1) // 2``;
    * a freshly (re)allocated entry starts at *midpoint + 1* — weakly
      trusted — so a cold entry predicts immediately, matching the
      paper's counter-free table, and only repeated mispredictions can
      silence it;
    * at ``confidence_bits=1`` init therefore equals the maximum (1):
      a fresh entry is never suppressed until its first miss, and a
      single verified prediction re-arms it.  The asymmetry (init above
      the suppression threshold) is the intended semantics, not an
      off-by-one;
    * the counter trains on the *would-be* prediction of a functioning
      entry, whether or not it was dispatched: increment on
      ``PA == CA`` (below max), decrement otherwise (above 0).
    """

    name = "stride"
    trains_on_demand = False

    __slots__ = ("entries", "confidence_bits", "_conf_max", "_conf_init",
                 "_index_mask", "_index_bits", "_table", "_conf",
                 "probes", "tag_hits", "predictions", "correct",
                 "suppressed")

    def __init__(self, entries: int, confidence_bits: int = 0):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("table entries must be a positive power of two")
        if confidence_bits < 0 or confidence_bits > 8:
            raise ValueError("confidence_bits must be in [0, 8]")
        self.entries = entries
        self.confidence_bits = confidence_bits
        self._conf_max = (1 << confidence_bits) - 1
        self._conf_init = self._conf_max // 2 + 1 if confidence_bits else 0
        self._index_mask = entries - 1
        self._index_bits = entries.bit_length() - 1
        self._table: list = [None] * entries
        self._conf = [0] * entries
        self.probes = 0
        self.tag_hits = 0
        self.predictions = 0
        self.correct = 0
        #: Predictions withheld by a low confidence counter.
        self.suppressed = 0

    def reset(self) -> None:
        self._table = [None] * self.entries
        self._conf = [0] * self.entries
        self.probes = self.tag_hits = self.predictions = self.correct = 0
        self.suppressed = 0

    def _split(self, pc: int) -> tuple[int, int]:
        """The (index, tag) pair for *pc* — the ONLY split in the class.

        Probe and update both route through this helper so the two
        stages can never disagree on which entry a PC maps to (they once
        each re-inlined the shift/mask and could drift independently).
        """
        word = pc >> 2
        return word & self._index_mask, word >> self._index_bits

    def probe(self, pc: int) -> Optional[int]:
        """ID1-stage probe: the predicted address, or None.

        None means a table miss, a learning-state entry, or (with the
        confidence extension) a distrusted entry; in all three cases no
        speculative access is dispatched for this load.
        """
        self.probes += 1
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is None or entry.tag != tag:
            return None
        self.tag_hits += 1
        prediction = entry.predict()
        if prediction is None:
            return None
        if self.confidence_bits and self._conf[index] <= self._conf_max // 2:
            self.suppressed += 1
            return None
        self.predictions += 1
        return prediction

    def update(self, pc: int, ca: int, predicted: Optional[int] = None,
               demand_hit: Optional[bool] = None) -> None:
        """MEM-stage update with the computed address *ca*.

        Allocates (Replace arc) on a miss.  ``predicted`` is the value
        returned by the paired :meth:`probe`, used only for statistics.
        ``demand_hit`` is accepted for protocol uniformity and ignored
        (the stride table trains on addresses, not cache outcomes).
        """
        if predicted is not None and predicted == ca:
            self.correct += 1
        index, tag = self._split(pc)
        entry = self._table[index]
        if entry is None:
            self._table[index] = TableEntry(tag, ca)
            self._conf[index] = self._conf_init
        elif entry.tag != tag:
            entry.allocate(tag, ca)
            self._conf[index] = self._conf_init
        else:
            if self.confidence_bits and entry.state == FUNCTIONING:
                # Train the counter on the would-be prediction, whether
                # or not it was dispatched.
                if entry.pa == ca:
                    if self._conf[index] < self._conf_max:
                        self._conf[index] += 1
                elif self._conf[index] > 0:
                    self._conf[index] -= 1
            entry.update(ca)


class UnboundedPredictor:
    """Per-static-load prediction counters with no capacity or conflicts.

    This is the paper's Table 2 methodology: "a simulation methodology
    that performs individual operation prediction... not affected by the
    limitations of a prediction cache".  Also the engine behind address
    profiling (Section 4.3).  The state machines run once per trace, in
    :func:`unbounded_outcomes`; :meth:`from_outcomes` reads the counters
    off that pass.
    """

    __slots__ = ("accesses", "correct", "per_load")

    def __init__(self):
        self.accesses = 0
        self.correct = 0
        #: uid -> [accesses, correct]
        self.per_load: Dict[int, list] = {}

    @classmethod
    def from_outcomes(cls, outcomes: "UnboundedOutcomes"
                      ) -> "UnboundedPredictor":
        """The counters of a whole trace, read off its
        :func:`unbounded_outcomes` (the entries' final state is not
        kept)."""
        predictor = cls()
        predictor.per_load = {
            uid: [seen, hits] for uid, (seen, hits)
            in outcomes.per_load.items()
        }
        predictor.accesses = len(outcomes.codes)
        predictor.correct = outcomes.codes.count(6)
        return predictor

    def rate(self, uid: int) -> float:
        """Prediction rate of one static load (0.0 if never executed)."""
        counters = self.per_load.get(uid)
        if not counters or counters[0] == 0:
            return 0.0
        return counters[1] / counters[0]


class UnboundedOutcomes:
    """The unbounded Figure 3 outcome of every dynamic load of a trace.

    ``codes[li]`` is the outcome of the ``li``-th dynamic load, in the
    bits of the precompute's prediction stream: 0 no prediction (the
    load's first instance, or a learning entry), 2 a wrong prediction,
    6 a correct one.  ``wrong_at`` / ``wrong_pa`` hold the load
    ordinals and predicted addresses of the wrong predictions, in trace
    order.  ``per_load`` maps each executed load uid to
    ``(instances, correct predictions)`` and ``first`` to the ordinal
    of its first instance.
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
    entry.  The address profiler and the precompute's prediction
    streams both read this pass; it runs once per trace and lives on
    the trace (``Trace.unbounded``, never pickled).
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
