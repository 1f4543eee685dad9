"""Bead abaci for bar-partitions.

Conventions used throughout:

* A fenced runner has slots 0, 1, 2, ... above the fence and an independent
  set of slots 0, 1, 2, ... below it.  In the default coloring every bead
  above the fence is white and every bead below is black; a runner is stored
  as the finite deviation from that default (`black_above`, `white_below`),
  so the default runner encodes the empty partition and the infinite abacus
  is never materialized.  The engine in littlewood.py holds the same pair as
  two descending int tuples.
* With above slot k at position k and below slot k at position -1-k, a shift
  by c is one translation of every bead (`partitions._shift`, shared with
  the engine); a pull up is c = 1 and a push down c = -1.  The reference
  runner of m, the first m above slots black (m > 0) or the first -m below
  slots white (m < 0), is ``FencedRunner().shift(m)``.
* A runner is *pointed* when it carries as many black beads above as white
  beads below.  A pointed runner encodes a partition through its Frobenius
  symbol: black slots above are the arms, white slots below are the legs.
* The t-runner abacus of a strict partition places a black bead at slot k of
  runner r for every part t*k + r.  Runner 0 never uses slot 0 (parts are
  positive).
* Twisting folds runner r and runner t-r (1 <= r <= (t-1)/2) into one fenced
  runner: runner r above the fence, runner t-r color-reversed below it.

The classes validate their input; they are the view for rendering and JSON.
An abacus built from a validated partition, and the twist and untwist of a
validated abacus, are built unchecked (``_Record._unchecked``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable
from operator import index

from .partitions import BarPartition, FrobeniusSymbol, Partition, _as, _odd_modulus, _Record, _shift

BLACK = "●"
WHITE = "○"


def _as_slot_set(xs: Iterable[int]) -> frozenset:
    out = frozenset(map(index, xs))
    if any(x < 0 for x in out):
        raise ValueError("slot labels must be non-negative")
    return out


class FencedRunner(_Record):
    """One fenced runner, stored as its deviation from the default coloring."""

    __slots__ = ("black_above", "white_below")

    def __init__(self, black_above: frozenset = frozenset(), white_below: frozenset = frozenset()):
        self._set(_as_slot_set(black_above), _as_slot_set(white_below))

    @property
    def charnum(self) -> int:
        """Characteristic number: #black above minus #white below."""
        return len(self.black_above) - len(self.white_below)

    @property
    def is_pointed(self) -> bool:
        return self.charnum == 0

    def shift(self, c: int) -> "FencedRunner":
        """Pull up c times (c > 0) or push down -c times (c < 0)."""
        above, below = _shift(tuple(self.black_above), tuple(self.white_below), c)
        return FencedRunner(frozenset(above), frozenset(below))

    def normalize(self) -> tuple["FencedRunner", int]:
        """Unique pointed runner reachable by pushing down / pulling up.

        Returns (pointed, c) where c = charnum and self == pointed.shift(c).
        """
        c = self.charnum
        return self.shift(-c), c

    def to_partition(self) -> Partition:
        """Frobenius reading of a pointed runner (arms above, legs below)."""
        if not self.is_pointed:
            raise ValueError("only a pointed runner encodes a partition")
        return FrobeniusSymbol(legs=tuple(self.white_below), arms=tuple(self.black_above)).to_partition()

    @classmethod
    def from_partition(cls, p: Partition) -> "FencedRunner":
        fs = _as(Partition, p).frobenius()
        return cls(frozenset(fs.arms), frozenset(fs.legs))

    def to_json(self) -> dict:
        return {"above": sorted(self.black_above), "below": sorted(self.white_below)}


class BarAbacus(_Record):
    """t-runner abacus of a strict partition: black slots per residue runner."""

    __slots__ = ("t", "runners")

    def __init__(self, t: int, runners: tuple[frozenset, ...]):
        t = _odd_modulus(t)
        runners = tuple(_as_slot_set(r) for r in runners)
        if len(runners) != t:
            raise ValueError(f"need {t} runners, got {len(runners)}")
        if 0 in runners[0]:
            raise ValueError("runner 0 cannot use slot 0 (parts are positive)")
        self._set(t, runners)

    @classmethod
    def from_partition(cls, lam: BarPartition, t: int) -> "BarAbacus":
        t = _odd_modulus(t)
        slots = {}
        for part in _as(BarPartition, lam).parts:
            slots.setdefault(part % t, []).append(part // t)
        runners = [frozenset()] * t
        for r, xs in slots.items():
            runners[r] = frozenset(xs)
        return cls._unchecked(t, tuple(runners))

    def to_partition(self) -> BarPartition:
        parts = sorted(
            (self.t * k + r for r, slots in enumerate(self.runners) for k in slots),
            reverse=True,
        )
        return BarPartition(parts)

    def twist(self) -> "TwistedBarAbacus":
        half = (self.t - 1) // 2
        shifted = tuple(
            FencedRunner._unchecked(self.runners[r], self.runners[self.t - r]) for r in range(1, half + 1)
        )
        return TwistedBarAbacus._unchecked(self.t, self.runners[0], shifted)


class TwistedBarAbacus(_Record):
    """Folded form: runner 0 plus one fenced runner per residue pair (r, t-r)."""

    __slots__ = ("t", "runner0", "shifted")

    def __init__(self, t: int, runner0: frozenset, shifted: tuple[FencedRunner, ...]):
        t = _odd_modulus(t)
        runner0 = _as_slot_set(runner0)
        if 0 in runner0:
            raise ValueError("runner 0 cannot use slot 0")
        shifted = tuple(shifted)
        if len(shifted) != (t - 1) // 2:
            raise ValueError(f"need {(t - 1) // 2} shifted runners, got {len(shifted)}")
        self._set(t, runner0, shifted)

    def untwist(self) -> BarAbacus:
        runners = [frozenset()] * self.t
        runners[0] = self.runner0
        for i, fr in enumerate(self.shifted):
            r = i + 1
            runners[r] = fr.black_above
            runners[self.t - r] = fr.white_below
        return BarAbacus._unchecked(self.t, tuple(runners))

    def to_partition(self) -> BarPartition:
        return self.untwist().to_partition()


_CHUNK = 4096  # the most rows in one piece of a drawing


def _band(lead: list, runners, on: str, off: str, downward: bool):
    """The rows of one band of a drawing, top row first, in pieces of at most
    _CHUNK rows joined by newlines.  A row is the lead cells, then one cell
    per runner: on where the runner has a bead at the row's slot, off
    elsewhere.  A downward band shows its highest slot at the top, an upward
    band slot 0.  Only the rows that hold a bead are built; every other row
    is one shared string."""
    beads = {}  # slot -> the runners with a bead there
    for j, slots in enumerate(runners):
        for k in slots:
            beads.setdefault(k, []).append(j)
    occupied = sorted(beads)
    height = (occupied[-1] if occupied else 0) + 1
    cells = [off] * len(runners)
    empty = " ".join(lead + cells)
    starts = range(0, height, _CHUNK)
    for start in reversed(starts) if downward else starts:
        stop = min(start + _CHUNK, height)
        rows = [empty] * (stop - start)
        for k in occupied[bisect_left(occupied, start):bisect_left(occupied, stop)]:
            row = cells.copy()
            for j in beads[k]:
                row[j] = on
            rows[k - start] = " ".join(lead + row)
        if downward:
            rows.reverse()
        yield "\n".join(rows)


def _lines(a):
    """The drawing of a plain or twisted abacus in pieces of lines, at most
    _CHUNK rows each; joined by newlines they are ``render(a)``."""
    if isinstance(a, BarAbacus):
        yield from _band([], a.runners, BLACK, WHITE, downward=True)
        yield " ".join(map(str, range(a.t)))
    elif isinstance(a, TwistedBarAbacus):
        above = [a.runner0] + [fr.black_above for fr in a.shifted]
        yield from _band([], above, BLACK, WHITE, downward=True)
        # runner 0 has no fence and no below band; its column stays blank there
        yield " ".join([" "] + ["-"] * len(a.shifted))
        below = [fr.white_below for fr in a.shifted]
        yield from _band([" "], below, WHITE, BLACK, downward=False)
        yield " ".join(map(str, range(len(a.shifted) + 1)))
    else:
        raise TypeError(f"cannot render {type(a).__name__}")


def render(a) -> str:
    """Deterministic ASCII drawing of a plain or twisted abacus."""
    return "\n".join(_lines(a))
