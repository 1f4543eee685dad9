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
  by c is one translation of every bead (`_shift`); pull_up is c = 1.
* A runner is *pointed* when it carries as many black beads above as white
  beads below.  A pointed runner encodes a partition through its Frobenius
  symbol: black slots above are the arms, white slots below are the legs.
* The t-runner abacus of a strict partition places a black bead at slot k of
  runner r for every part t*k + r.  Runner 0 never uses slot 0 (parts are
  positive).
* Twisting folds runner r and runner t-r (1 <= r <= (t-1)/2) into one fenced
  runner: runner r above the fence, runner t-r color-reversed below it.

The classes validate their input; they are the view for rendering and JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .partitions import BarPartition, FrobeniusSymbol, Partition

BLACK = "●"
WHITE = "○"


def _as_slot_set(xs: Iterable[int]) -> frozenset:
    out = frozenset(int(x) for x in xs)
    if any(x < 0 for x in out):
        raise ValueError("slot labels must be non-negative")
    return out


def _shift(above: tuple, below: tuple, c: int) -> tuple[tuple, tuple]:
    """Translate every bead of the runner (above, below) by c positions.

    For c > 0 the below slots 0..c-1 cross the fence, and the black ones
    among them land on above slots c-1..0.  A push down (c < 0) is the pull
    up of the color-reversed mirror runner (below, above).  Descending slot
    tuples stay descending.
    """
    if c < 0:
        below, above = _shift(below, above, -c)
        return above, below
    white = set(below)
    return (
        tuple(x + c for x in above) + tuple(c - 1 - k for k in range(c) if k not in white),
        tuple(k - c for k in below if k >= c),
    )


@dataclass(frozen=True)
class FencedRunner:
    """One fenced runner, stored as its deviation from the default coloring."""

    black_above: frozenset = frozenset()
    white_below: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "black_above", _as_slot_set(self.black_above))
        object.__setattr__(self, "white_below", _as_slot_set(self.white_below))

    @property
    def charnum(self) -> int:
        """Characteristic number: #black above minus #white below."""
        return len(self.black_above) - len(self.white_below)

    @property
    def is_pointed(self) -> bool:
        return self.charnum == 0

    @property
    def is_default(self) -> bool:
        return not self.black_above and not self.white_below

    def push_down(self) -> "FencedRunner":
        """Move every bead one slot downward; above-slot 0 crosses the fence."""
        crossing_black = 0 in self.black_above
        above = frozenset(x - 1 for x in self.black_above if x >= 1)
        below = set(x + 1 for x in self.white_below)
        if not crossing_black:
            below.add(0)
        return FencedRunner(above, frozenset(below))

    def pull_up(self) -> "FencedRunner":
        """Inverse of push_down: below-slot 0 crosses the fence upward."""
        crossing_white = 0 in self.white_below
        below = frozenset(x - 1 for x in self.white_below if x >= 1)
        above = set(x + 1 for x in self.black_above)
        if not crossing_white:
            above.add(0)
        return FencedRunner(frozenset(above), below)

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
        fs = p.frobenius()
        return cls(frozenset(fs.arms), frozenset(fs.legs))

    def to_json(self) -> dict:
        return {"above": sorted(self.black_above), "below": sorted(self.white_below)}

    @classmethod
    def from_json(cls, data: dict) -> "FencedRunner":
        return cls(frozenset(data["above"]), frozenset(data["below"]))


def reference_runner(m: int) -> FencedRunner:
    """Runner with the first m above slots blackened (m > 0) or the first -m
    below slots whitened (m < 0)."""
    return FencedRunner().shift(m)


def _check_t(t: int) -> int:
    t = int(t)
    if t < 3 or t % 2 == 0:
        raise ValueError(f"t must be an odd integer >= 3, got {t}")
    return t


@dataclass(frozen=True)
class BarAbacus:
    """t-runner abacus of a strict partition: black slots per residue runner."""

    t: int
    runners: tuple[frozenset, ...]

    def __post_init__(self):
        t = _check_t(self.t)
        runners = tuple(_as_slot_set(r) for r in self.runners)
        if len(runners) != t:
            raise ValueError(f"need {t} runners, got {len(runners)}")
        if 0 in runners[0]:
            raise ValueError("runner 0 cannot use slot 0 (parts are positive)")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "runners", runners)

    @classmethod
    def from_partition(cls, lam: BarPartition, t: int) -> "BarAbacus":
        t = _check_t(t)
        runners = [set() for _ in range(t)]
        for part in lam:
            runners[part % t].add(part // t)
        return cls(t, tuple(frozenset(r) for r in runners))

    def to_partition(self) -> BarPartition:
        parts = sorted(
            (self.t * k + r for r, slots in enumerate(self.runners) for k in slots),
            reverse=True,
        )
        return BarPartition(parts)

    def twist(self) -> "TwistedBarAbacus":
        half = (self.t - 1) // 2
        shifted = tuple(
            FencedRunner(self.runners[r], self.runners[self.t - r]) for r in range(1, half + 1)
        )
        return TwistedBarAbacus(self.t, self.runners[0], shifted)

    def to_json(self) -> dict:
        return {"t": self.t, "runners": [sorted(r) for r in self.runners]}

    @classmethod
    def from_json(cls, data: dict) -> "BarAbacus":
        return cls(data["t"], tuple(frozenset(r) for r in data["runners"]))


@dataclass(frozen=True)
class TwistedBarAbacus:
    """Folded form: runner 0 plus one fenced runner per residue pair (r, t-r)."""

    t: int
    runner0: frozenset
    shifted: tuple[FencedRunner, ...]

    def __post_init__(self):
        t = _check_t(self.t)
        runner0 = _as_slot_set(self.runner0)
        if 0 in runner0:
            raise ValueError("runner 0 cannot use slot 0")
        shifted = tuple(self.shifted)
        if len(shifted) != (t - 1) // 2:
            raise ValueError(f"need {(t - 1) // 2} shifted runners, got {len(shifted)}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "runner0", runner0)
        object.__setattr__(self, "shifted", shifted)

    def untwist(self) -> BarAbacus:
        runners = [frozenset()] * self.t
        runners[0] = self.runner0
        for i, fr in enumerate(self.shifted):
            r = i + 1
            runners[r] = fr.black_above
            runners[self.t - r] = fr.white_below
        return BarAbacus(self.t, tuple(runners))

    def to_partition(self) -> BarPartition:
        return self.untwist().to_partition()

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "runner0": sorted(self.runner0),
            "shifted": [fr.to_json() for fr in self.shifted],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TwistedBarAbacus":
        return cls(
            data["t"],
            frozenset(data["runner0"]),
            tuple(FencedRunner.from_json(d) for d in data["shifted"]),
        )


def _render_plain(a: BarAbacus) -> str:
    height = max((max(r) for r in a.runners if r), default=0) + 1
    lines = []
    for slot in range(height - 1, -1, -1):
        lines.append(" ".join(BLACK if slot in r else WHITE for r in a.runners))
    lines.append(" ".join(str(r) for r in range(a.t)))
    return "\n".join(lines)


def _render_twisted(a: TwistedBarAbacus) -> str:
    above_h = max(
        [max(a.runner0, default=0)] + [max(fr.black_above, default=0) for fr in a.shifted]
    ) + 1
    below_h = max(max(fr.white_below, default=0) for fr in a.shifted) + 1 if a.shifted else 1
    lines = []
    for slot in range(above_h - 1, -1, -1):
        row = [BLACK if slot in a.runner0 else WHITE]
        row += [BLACK if slot in fr.black_above else WHITE for fr in a.shifted]
        lines.append(" ".join(row))
    # runner 0 has no fence and no below band; its column stays blank there
    lines.append(" ".join([" "] + ["-"] * len(a.shifted)))
    for slot in range(below_h):
        row = [" "]
        row += [WHITE if slot in fr.white_below else BLACK for fr in a.shifted]
        lines.append(" ".join(row))
    lines.append(" ".join(str(r) for r in range(len(a.shifted) + 1)))
    return "\n".join(lines)


def render(a) -> str:
    """Deterministic ASCII drawing of a plain or twisted abacus."""
    if isinstance(a, BarAbacus):
        return _render_plain(a)
    if isinstance(a, TwistedBarAbacus):
        return _render_twisted(a)
    raise TypeError(f"cannot render {type(a).__name__}")
