"""Integer partitions, strict (bar) partitions and Frobenius symbols.

Values are immutable: every operation returns a new object, so partitions can
be shared freely between threads and used as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator


class Partition:
    """A partition: weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        pts = tuple(int(x) for x in parts)
        for i, x in enumerate(pts):
            if x < 1:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i and pts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {pts}")
        object.__setattr__(self, "parts", pts)

    def __setattr__(self, name, value):
        raise AttributeError("partitions are immutable")

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts

    def __le__(self, other):
        return self.parts <= other.parts

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.parts)})"

    def __str__(self):
        """Text form "a,b,c"; the empty partition prints as ""."""
        return ",".join(str(x) for x in self.parts)

    # -- size data ------------------------------------------------------

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def sign(self) -> int:
        """(-1)**(size - length)."""
        return -1 if (self.size - self.length) % 2 else 1

    # -- diagram operations ----------------------------------------------

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram: arms and legs trade places."""
        arms, legs = _frobenius(self.parts)
        return Partition(_from_frobenius(legs, arms))

    def is_self_conjugate(self) -> bool:
        arms, legs = _frobenius(self.parts)
        return arms == legs

    def durfee(self) -> int:
        """Number of diagonal boxes."""
        return sum(1 for i, p in enumerate(self.parts) if p >= i + 1)

    def frobenius(self) -> "FrobeniusSymbol":
        """Arm/leg coordinates of the diagonal boxes."""
        arms, legs = _frobenius(self.parts)
        return FrobeniusSymbol(legs=legs, arms=arms)

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Hook lengths of the diagonal boxes, largest first."""
        fs = self.frobenius()
        return tuple(a + l + 1 for a, l in zip(fs.arms, fs.legs))

    def hook_lengths(self) -> tuple[int, ...]:
        """All hook lengths of the Young diagram (row by row)."""
        conj = self.conjugate().parts
        out = []
        for i, p in enumerate(self.parts):
            for j in range(p):
                out.append((p - j) + (conj[j] - i) - 1)
        return tuple(out)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_text(cls, text: str):
        text = text.strip()
        if not text:
            return cls()
        return cls(int(tok) for tok in text.split(","))


class BarPartition(Partition):
    """A bar-partition: strictly decreasing positive parts."""

    __slots__ = ()

    def __init__(self, parts: Iterable[int] = ()):
        super().__init__(parts)
        for i in range(1, len(self.parts)):
            if self.parts[i - 1] == self.parts[i]:
                raise ValueError(f"parts must be strictly decreasing, got {self.parts}")


@dataclass(frozen=True)
class FrobeniusSymbol:
    """Equal-size sets of leg and arm lengths, stored sorted descending."""

    legs: tuple[int, ...]
    arms: tuple[int, ...]

    def __post_init__(self):
        legs = tuple(sorted({int(x) for x in self.legs}, reverse=True))
        arms = tuple(sorted({int(x) for x in self.arms}, reverse=True))
        if len(legs) != len(self.legs) or len(arms) != len(self.arms):
            raise ValueError("arm and leg entries must be distinct")
        if any(x < 0 for x in legs + arms):
            raise ValueError("arm and leg entries must be non-negative")
        if len(legs) != len(arms):
            raise ValueError("need as many legs as arms")
        object.__setattr__(self, "legs", legs)
        object.__setattr__(self, "arms", arms)

    def to_partition(self) -> Partition:
        return Partition(_from_frobenius(self.arms, self.legs))


def _frobenius(parts: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Descending (arms, legs) of a weakly decreasing part tuple in O(length):
    leg i is the length of column i less i+1, read by a pointer walk up from
    the last part instead of building the conjugate."""
    d = 0
    while d < len(parts) and parts[d] > d:
        d += 1
    legs, k = [], len(parts)
    for i in range(d):
        while parts[k - 1] <= i:
            k -= 1
        legs.append(k - i - 1)
    return tuple(parts[i] - i - 1 for i in range(d)), tuple(legs)


def _from_frobenius(arms: tuple[int, ...], legs: tuple[int, ...]) -> tuple[int, ...]:
    """Parts with the given descending arms and legs in O(d + rows): row i < d
    is arms[i]+i+1, and each row below the diagonal counts the weakly
    decreasing column lengths legs[j]+j+1 that reach it."""
    d = len(arms)
    rows = [arms[i] + i + 1 for i in range(d)]
    j = d
    for i in range(d + 1, legs[0] + 2 if d else 0):
        while legs[j - 1] + j < i:
            j -= 1
        rows.append(j)
    return tuple(rows)


def from_frobenius(legs: Iterable[int], arms: Iterable[int]) -> Partition:
    return FrobeniusSymbol(legs=tuple(legs), arms=tuple(arms)).to_partition()


def _gen_all(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_all(n - first, first):
            yield (first,) + rest


def _gen_strict(n: int, max_part: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _gen_strict(n - first, first - 1):
            yield (first,) + rest


def enumerate_partitions(n: int, kind: str = "all") -> Iterator[Partition]:
    """Yield each qualifying partition of n once, in lexicographic descending order.

    kind is one of "all", "strict", "self_conjugate".
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if kind == "all":
        for parts in _gen_all(n, n):
            yield Partition(parts)
    elif kind == "strict":
        for parts in _gen_strict(n, n):
            yield BarPartition(parts)
    elif kind == "self_conjugate":
        # self-conjugate partitions of n <-> sets of distinct odd diagonal
        # hook lengths summing to n
        found = []
        for hooks in _gen_strict(n, n):
            if all(h % 2 for h in hooks):
                arms = tuple((h - 1) // 2 for h in hooks)
                found.append(FrobeniusSymbol(legs=arms, arms=arms).to_partition())
        found.sort(key=lambda p: p.parts, reverse=True)
        yield from found
    else:
        raise ValueError(f"unknown kind {kind!r}")


@lru_cache(maxsize=None)
def _partitions_of(n: int, kind: str) -> tuple[Partition, ...]:
    """The partitions of enumerate_partitions(n, kind), memoized as a tuple."""
    return tuple(enumerate_partitions(n, kind))


def parse_partition(text: str, strict: bool = False) -> Partition:
    """Parse the "a,b,c" text form ("" is the empty partition)."""
    return (BarPartition if strict else Partition).from_text(text)
