"""Branch target buffer: 1K entries, 2-bit saturating counters, tags.

The front end probes the BTB with the fetch address.  A hit with a
counter in a taken state (2 or 3) predicts taken toward the stored
target; anything else predicts fall-through.  Entries are allocated when
a branch is taken, which is when a fall-through prediction first costs a
redirect.  Returns predict through the BTB too, as in the paper's
machine.  The BTB holds only its tag, target and counter arrays; the
front end counts the mispredicts it charges.
"""

from __future__ import annotations


class BranchTargetBuffer:
    """Direct-mapped BTB with 2-bit counters."""

    __slots__ = ("_index_mask", "_tag_shift", "_tags", "_targets",
                 "_counters")

    def __init__(self, entries: int = 1024):
        if entries <= 0 or entries & (entries - 1):
            raise ValueError("BTB entries must be a positive power of two")
        self._index_mask = entries - 1
        self._tag_shift = entries.bit_length() - 1
        self._tags: list = [None] * entries
        self._targets = [0] * entries
        self._counters = [0] * entries

    def predict(self, addr: int) -> tuple[bool, int]:
        """Predict ``(taken, target)`` for the branch at *addr*.

        A BTB miss or a counter below 2 predicts fall-through (target 0).
        """
        word = addr >> 2
        index = word & self._index_mask
        if self._tags[index] == word >> self._tag_shift:
            if self._counters[index] >= 2:
                return True, self._targets[index]
        return False, 0

    def update(self, addr: int, taken: bool, target: int) -> None:
        """Train the entry after the branch resolves."""
        word = addr >> 2
        index = word & self._index_mask
        tag = word >> self._tag_shift
        if self._tags[index] == tag:
            counter = self._counters[index]
            if taken:
                self._counters[index] = min(3, counter + 1)
                self._targets[index] = target
            else:
                self._counters[index] = max(0, counter - 1)
        elif taken:
            self._tags[index] = tag
            self._targets[index] = target
            self._counters[index] = 2  # weakly taken on allocation
