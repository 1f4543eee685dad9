"""Integer partitions, strict (bar) partitions, Frobenius symbols, records.

Values are immutable: every operation returns a new object, so partitions can
be shared freely between threads and used as dict keys.

Every public callable that takes a partition reads it through ``_as``, the
one read: a list or tuple of parts is the partition it spells, checked where
it enters.  Parts are read by ``operator.index``, which refuses a float.

A record (``_Record``) lists its fields in ``__slots__``; its ``__init__``
validates them and sets each once.  A record derived from validated records
is built by ``_Record._unchecked`` instead, and a label derived from
validated input by ``_trusted``.  Records compare by class and fields, and
copy, pickle and ``_replace`` go through the constructor, which checks again.
A record's JSON is its fields by name, in order (``_json``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import partial
from itertools import chain, repeat
from operator import attrgetter, index


class Partition:
    """A partition: weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        pts = tuple(map(index, parts))
        for i, x in enumerate(pts):
            if x < 1:
                raise ValueError(f"parts must be positive integers, got {x}")
            if i and pts[i - 1] < x:
                raise ValueError(f"parts must be weakly decreasing, got {pts}")
        object.__setattr__(self, "parts", pts)

    def __setattr__(self, name, value):
        raise AttributeError("partitions are immutable")

    def __reduce__(self):
        return type(self), (self.parts,)

    # -- basic protocol -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __lt__(self, other):
        return self.parts < other.parts if isinstance(other, Partition) else NotImplemented

    def __le__(self, other):
        return self.parts <= other.parts if isinstance(other, Partition) else NotImplemented

    def __iter__(self):
        return iter(self.parts)

    def __bool__(self):
        return bool(self.parts)

    def __repr__(self):
        return f"{type(self).__name__}({list(self.parts)})"

    def __str__(self):
        """Text form "a,b,c"; the empty partition prints as ""."""
        return ",".join(map(str, self.parts))

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
        return _trusted(Partition, _from_frobenius(legs, arms))

    def is_self_conjugate(self) -> bool:
        arms, legs = _frobenius(self.parts)
        return arms == legs

    def durfee(self) -> int:
        """Number of diagonal boxes."""
        return sum(1 for i, p in enumerate(self.parts) if p >= i + 1)

    def frobenius(self) -> "FrobeniusSymbol":
        """Arm/leg coordinates of the diagonal boxes; diagonal box i has the
        hook length arms[i] + legs[i] + 1."""
        arms, legs = _frobenius(self.parts)
        return FrobeniusSymbol._unchecked(legs, arms)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> list[int]:
        return list(self.parts)

    @classmethod
    def from_text(cls, text: str):
        if not text.strip():
            return cls()
        parts = []
        for tok in text.split(","):
            try:
                parts.append(int(tok))
            except ValueError:
                raise ValueError(f"cannot parse partition {text!r}: field {tok!r} is not an integer") from None
        return cls(parts)


class BarPartition(Partition):
    """A bar-partition: strictly decreasing positive parts."""

    __slots__ = ()

    def __init__(self, parts: Iterable[int] = ()):
        super().__init__(parts)
        for i in range(1, len(self.parts)):
            if self.parts[i - 1] == self.parts[i]:
                raise ValueError(f"parts must be strictly decreasing, got {self.parts}")


def _trusted(cls, parts: tuple[int, ...]):
    """A cls with these parts, unchecked: only for parts that this module or the
    engine in littlewood.py derived from validated input."""
    lam = object.__new__(cls)
    object.__setattr__(lam, "parts", parts)
    return lam


def _as(cls, value):
    """value read as a cls: itself when it is one, else cls(value)."""
    return value if isinstance(value, cls) else cls(value)


def _odd_modulus(m, rule: str = "t must be an odd integer >= 3") -> int:
    """m read by operator.index, refused unless it is an odd integer >= 3: the
    one modulus check of abacus.py and littlewood.py.  rule opens the message."""
    m = index(m)
    if m < 3 or m % 2 == 0:
        raise ValueError(f"{rule}, got {m}")
    return m


class _Record:
    """Base of the immutable records.  The fields, two or more, are the
    ``__slots__`` of the class and its bases in order; ``_key(record)`` is
    their tuple, which eq, hash, repr and to_json read.  A record whose JSON
    keys are not its field names overrides to_json."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for c in reversed(cls.__mro__) for name in vars(c).get("__slots__", ()))
        cls._key = attrgetter(*cls._fields)

    def _set(self, *values):
        """Set the fields in order.  Records built per label or decomposition
        set each by object.__setattr__ instead, 0.1 us faster per field."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    @classmethod
    def _unchecked(cls, *values):
        """A cls with these fields, unchecked: the one way to build a record
        derived from validated records (a Frobenius symbol, an abacus or its
        twist) without its validating constructor."""
        record = object.__new__(cls)
        record._set(*values)
        return record

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._key(self)), **changes))

    def __reduce__(self):
        return type(self), self._key(self)

    def to_json(self) -> dict:
        return {name: _json(value) for name, value in zip(self._fields, self._key(self))}


def _json(value):
    """A field's JSON: a partition or record by its own to_json, a tuple as a
    list, a frozenset of slots sorted, an int, str or dict as it is."""
    if isinstance(value, (Partition, _Record)):
        return value.to_json()
    if isinstance(value, tuple):
        return [_json(x) for x in value]
    if isinstance(value, frozenset):
        return sorted(value)
    return value


class FrobeniusSymbol(_Record):
    """Equal-size sets of leg and arm lengths, stored sorted descending."""

    __slots__ = ("legs", "arms")

    def __init__(self, legs: tuple[int, ...], arms: tuple[int, ...]):
        distinct_legs = tuple(sorted(set(map(index, legs)), reverse=True))
        distinct_arms = tuple(sorted(set(map(index, arms)), reverse=True))
        if len(distinct_legs) != len(legs) or len(distinct_arms) != len(arms):
            raise ValueError("arm and leg entries must be distinct")
        if any(x < 0 for x in distinct_legs + distinct_arms):
            raise ValueError("arm and leg entries must be non-negative")
        if len(distinct_legs) != len(distinct_arms):
            raise ValueError("need as many legs as arms")
        object.__setattr__(self, "legs", distinct_legs)
        object.__setattr__(self, "arms", distinct_arms)

    def to_partition(self) -> Partition:
        return _trusted(Partition, _from_frobenius(self.arms, self.legs))


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
    """Parts with the given descending arms and legs in O(d) steps: row i < d
    is arms[i]+i+1, and below the diagonal the rows equal to j are those that
    column j-1 reaches and column j does not, legs[j-1] - legs[j] - 1 of them
    (legs[d] read as -1).  The tuple is filled from these runs directly, with
    no list of its rows beside it."""
    d = len(arms)
    runs = [repeat(j, legs[j - 1] - (legs[j] if j < d else -1) - 1) for j in range(d, 0, -1)]
    return tuple(chain([arms[i] + i + 1 for i in range(d)], *runs))


def _shift(above: tuple, below: tuple, c: int) -> tuple[tuple, tuple]:
    """Translate every bead of the fenced runner (above, below) by c positions.

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


def _room(top: int, gap: int) -> int:
    """top + (top - gap) + (top - 2*gap) + ..., over the positive terms (top >= 1, gap >= 1)."""
    k = (top + gap - 1) // gap
    return k * top - gap * k * (k - 1) // 2


def _gen(n: int, max_part: int, gap: int, step: int) -> Iterator[tuple[int, ...]]:
    """Descending part tuples summing to n, parts at most max_part, each part
    at least gap below the one before; with step 2 every part is odd.  They
    come lazily in lexicographic descending order, from an explicit stack
    that holds, per position, the range of parts still to try there.

    A part f is tried only when the parts after it can still fill what is
    left: with gap 0 any rest can be filled (by ones), and otherwise f needs
    _room(f, gap) >= left.  That bound is exact for strict partitions, so
    their walk meets no dead end; for the odd parts of the self-conjugate
    walk it is necessary only.  The least such f depends on left alone and
    is found once per left (least)."""
    if not n:
        yield ()
        return
    least = {}

    def to_try(left, top):
        if left not in least:
            f = 1
            while gap and _room(f, gap) < left:
                f += step
            least[left] = f
        top = min(left, top)
        return iter(range(top - (top + 1) % step, least[left] - 1, -step))

    parts, stack = [], [to_try(n, max_part)]
    while stack:
        part = next(stack[-1], None)
        if part is None:
            stack.pop()
            if parts:
                n += parts.pop()
        elif part == n:
            yield (*parts, part)
        else:
            parts.append(part)
            n -= part
            stack.append(to_try(n, part - gap))


def _selfconjugate(hooks: tuple[int, ...]) -> Partition:
    arms = tuple(h // 2 for h in hooks)
    return _trusted(Partition, _from_frobenius(arms, arms))


# kind -> (gap, step, label of a generated tuple).  Self-conjugate partitions
# of n <-> sets of distinct odd diagonal hook lengths summing to n; descending
# hooks give descending parts.
_KINDS = {
    "all": (0, 1, partial(_trusted, Partition)),
    "strict": (1, 1, partial(_trusted, BarPartition)),
    "self_conjugate": (2, 2, _selfconjugate),
}


def enumerate_partitions(n: int, kind: str = "all") -> Iterator[Partition]:
    """Each qualifying partition of n once, in lexicographic descending order,
    as a lazy iterator; n and kind are checked at the call.

    kind is one of "all", "strict", "self_conjugate".
    """
    n = index(n)
    if n < 0:
        raise ValueError("n must be non-negative")
    if kind not in _KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    gap, step, label = _KINDS[kind]
    return map(label, _gen(n, n, gap, step))
