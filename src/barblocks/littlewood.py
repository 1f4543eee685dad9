"""Core/quotient/cocore decompositions of bar-partitions and of ordinary
partitions, plus the pairing of parts (resp. diagonal hooks) on cocores.

The strict-partition decomposition works on the twisted t-abacus: runner 0 is
read off directly, every other fenced runner is normalized to its pointed
form, and the discarded shifts form the characteristic vector.  The vector
determines the core, the pointed runners the cocore, and the count d records
the beads whose parts vanish when the shifts are reapplied, which makes
``length == core.length + cocore.length - 2*d`` an exact identity.

The ordinary decomposition runs the same engine on a family of p fenced
runners built from the Frobenius symbol (arm a above runner a mod p, leg l
below runner p-1-(l mod p)), so that conjugation is literally the runner
reflection j <-> p-1-j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .abacus import BarAbacus, FencedRunner, TwistedBarAbacus
from .partitions import BarPartition, FrobeniusSymbol, Partition


@dataclass(frozen=True)
class BarLittlewood:
    """Decomposition record of a bar-partition for an odd t."""

    t: int
    core: BarPartition
    quotient: tuple[Partition, ...]
    charvec: tuple[int, ...]
    weight: int
    cocore: BarPartition
    d: int

    def to_json(self) -> dict:
        return {
            "core": self.core.to_json(),
            "quotient": [q.to_json() for q in self.quotient],
            "charvec": list(self.charvec),
            "weight": self.weight,
            "cocore": self.cocore.to_json(),
            "d": self.d,
        }

    @classmethod
    def from_json(cls, data: dict, t: int) -> "BarLittlewood":
        quotient = [BarPartition(data["quotient"][0])]
        quotient += [Partition(q) for q in data["quotient"][1:]]
        return cls(
            t=t,
            core=BarPartition(data["core"]),
            quotient=tuple(quotient),
            charvec=tuple(data["charvec"]),
            weight=data["weight"],
            cocore=BarPartition(data["cocore"]),
            d=data["d"],
        )


@dataclass(frozen=True)
class OrdinaryLittlewood:
    """Decomposition record of an ordinary partition for an odd prime p."""

    p: int
    core: Partition
    quotient: tuple[Partition, ...]
    charvec: tuple[int, ...]
    weight: int
    cocore: Partition
    d: int

    def to_json(self) -> dict:
        return {
            "core": self.core.to_json(),
            "quotient": [q.to_json() for q in self.quotient],
            "charvec": list(self.charvec),
            "weight": self.weight,
            "cocore": self.cocore.to_json(),
            "d": self.d,
        }

    @classmethod
    def from_json(cls, data: dict, p: int) -> "OrdinaryLittlewood":
        return cls(
            p=p,
            core=Partition(data["core"]),
            quotient=tuple(Partition(q) for q in data["quotient"]),
            charvec=tuple(data["charvec"]),
            weight=data["weight"],
            cocore=Partition(data["cocore"]),
            d=data["d"],
        )


def _core_from_charvec(charvec: Sequence[int], t: int) -> BarPartition:
    parts = []
    for i, c in enumerate(charvec):
        r = i + 1
        if c > 0:
            parts.extend(t * x + r for x in range(c))
        elif c < 0:
            parts.extend(t * x + (t - r) for x in range(-c))
    return BarPartition(sorted(parts, reverse=True))


@lru_cache(maxsize=None)
def _bar_decompose_cached(parts: tuple[int, ...], t: int) -> BarLittlewood:
    lam = BarPartition(parts)
    twisted = BarAbacus.from_partition(lam, t).twist()

    quotient: list[Partition] = [BarPartition(sorted(twisted.runner0, reverse=True))]
    charvec: list[int] = []
    pointed: list[FencedRunner] = []
    d = 0
    for fr in twisted.shifted:
        s, c = fr.normalize()
        pointed.append(s)
        charvec.append(c)
        quotient.append(s.to_partition())
        if c > 0:
            d += sum(1 for x in s.white_below if x < c)
        elif c < 0:
            d += sum(1 for x in s.black_above if x < -c)

    cocore = TwistedBarAbacus(t, twisted.runner0, tuple(pointed)).to_partition()
    return BarLittlewood(
        t=t,
        core=_core_from_charvec(charvec, t),
        quotient=tuple(quotient),
        charvec=tuple(charvec),
        weight=sum(q.size for q in quotient),
        cocore=cocore,
        d=d,
    )


def bar_decompose(lam: BarPartition, t: int) -> BarLittlewood:
    """Decompose a strict partition into t-core, t-quotient and t-cocore."""
    if not isinstance(lam, BarPartition):
        lam = BarPartition(lam)
    if t % 2 == 0 or t < 3:
        raise ValueError(f"t must be an odd integer >= 3, got {t}")
    return _bar_decompose_cached(lam.parts, int(t))


def is_bar_core(lam: BarPartition, t: int) -> bool:
    return bar_decompose(lam, t).weight == 0


def bar_reconstruct(core: BarPartition, quotient: Sequence[Partition], t: int) -> BarPartition:
    """Inverse of bar_decompose: rebuild the partition with the given core
    and quotient."""
    if not isinstance(core, BarPartition):
        core = BarPartition(core)
    quotient = tuple(q if isinstance(q, Partition) else Partition(q) for q in quotient)
    if len(quotient) != (t + 1) // 2:
        raise ValueError(f"quotient needs {(t + 1) // 2} components, got {len(quotient)}")
    dec = bar_decompose(core, t)
    if dec.weight != 0:
        raise ValueError(f"{core!r} is not a {t}-core")
    q0 = BarPartition(quotient[0].parts)

    runner0 = frozenset(q0.parts)
    shifted = []
    for c, q in zip(dec.charvec, quotient[1:]):
        fs = q.frobenius()
        pointed = FencedRunner(frozenset(fs.arms), frozenset(fs.legs))
        shifted.append(pointed.shift(c))
    return TwistedBarAbacus(t, runner0, tuple(shifted)).to_partition()


def bar_cocore(lam: BarPartition, t: int) -> BarPartition:
    """The unique strict partition with empty t-core and the same quotient."""
    return bar_decompose(lam, t).cocore


def paired_parts(lam: BarPartition, p: int) -> tuple[tuple[int, int], ...]:
    """Match the parts of a p-cocore across residue pairs (r, p-r).

    The i-th largest arm of quotient component r is paired with its i-th
    largest leg; read back on the plain abacus these are parts of sizes
    p*x + r and p*x* + (p-r), whose sum is divisible by p.  Every part with
    nonzero residue lies in exactly one pair.
    """
    dec = bar_decompose(lam, p)
    if dec.core:
        raise ValueError(f"{lam!r} is not a {p}-cocore")
    twisted = BarAbacus.from_partition(dec.cocore, p).twist()
    pairs = []
    for i, fr in enumerate(twisted.shifted):
        r = i + 1
        arms = sorted(fr.black_above, reverse=True)
        legs = sorted(fr.white_below, reverse=True)
        for x, x_star in zip(arms, legs):
            pairs.append((p * x + r, p * x_star + (p - r)))
    return tuple(sorted(pairs))


# ---------------------------------------------------------------------------
# ordinary partitions


def _ordinary_runners(lam: Partition, p: int) -> list[FencedRunner]:
    fs = lam.frobenius()
    above = [set() for _ in range(p)]
    below = [set() for _ in range(p)]
    for a in fs.arms:
        above[a % p].add(a // p)
    for l in fs.legs:
        below[p - 1 - (l % p)].add(l // p)
    return [FencedRunner(frozenset(above[j]), frozenset(below[j])) for j in range(p)]


def _partition_from_runners(runners: Sequence[FencedRunner], p: int) -> Partition:
    arms, legs = [], []
    for j, fr in enumerate(runners):
        arms.extend(p * x + j for x in fr.black_above)
        legs.extend(p * x + (p - 1 - j) for x in fr.white_below)
    return FrobeniusSymbol(legs=tuple(legs), arms=tuple(arms)).to_partition()


@lru_cache(maxsize=None)
def _ordinary_decompose_cached(parts: tuple[int, ...], p: int) -> OrdinaryLittlewood:
    lam = Partition(parts)
    pointed: list[FencedRunner] = []
    charvec: list[int] = []
    quotient: list[Partition] = []
    for fr in _ordinary_runners(lam, p):
        s, c = fr.normalize()
        pointed.append(s)
        charvec.append(c)
        quotient.append(s.to_partition())

    core_above = [
        frozenset(range(c)) if c > 0 else frozenset() for c in charvec
    ]
    core_below = [
        frozenset(range(-c)) if c < 0 else frozenset() for c in charvec
    ]
    core = _partition_from_runners(
        [FencedRunner(a, b) for a, b in zip(core_above, core_below)], p
    )
    cocore = _partition_from_runners(pointed, p)

    # one window count per runner pair {j, p-1-j}; counting both members
    # would tally every vanished diagonal hook twice
    d = 0
    for j in range((p + 1) // 2):
        c, s = charvec[j], pointed[j]
        if c > 0:
            d += sum(1 for x in s.white_below if x < c)
        elif c < 0:
            d += sum(1 for x in s.black_above if x < -c)

    return OrdinaryLittlewood(
        p=p,
        core=core,
        quotient=tuple(quotient),
        charvec=tuple(charvec),
        weight=sum(q.size for q in quotient),
        cocore=cocore,
        d=d,
    )


def ordinary_decompose(lam: Partition, p: int) -> OrdinaryLittlewood:
    """p-core/p-quotient/p-cocore of an ordinary partition, p an odd prime."""
    if not isinstance(lam, Partition):
        lam = Partition(lam)
    if p % 2 == 0 or p < 3:
        raise ValueError(f"p must be an odd prime >= 3, got {p}")
    return _ordinary_decompose_cached(lam.parts, int(p))


def ordinary_reconstruct(core: Partition, quotient: Sequence[Partition], p: int) -> Partition:
    if not isinstance(core, Partition):
        core = Partition(core)
    quotient = tuple(q if isinstance(q, Partition) else Partition(q) for q in quotient)
    if len(quotient) != p:
        raise ValueError(f"quotient needs {p} components, got {len(quotient)}")
    dec = ordinary_decompose(core, p)
    if dec.weight != 0:
        raise ValueError(f"{core!r} is not a {p}-core")
    runners = []
    for c, q in zip(dec.charvec, quotient):
        fs = q.frobenius()
        pointed = FencedRunner(frozenset(fs.arms), frozenset(fs.legs))
        runners.append(pointed.shift(c))
    return _partition_from_runners(runners, p)


def ordinary_cocore(lam: Partition, p: int) -> Partition:
    return ordinary_decompose(lam, p).cocore


def selfconjugate_paired_hooks(lam: Partition, p: int) -> tuple[tuple[int, int], ...]:
    """Pair the diagonal hooks of a self-conjugate p-cocore across runners
    j and p-1-j; each pair sums to a multiple of 2p.  Hooks on the middle
    runner pair with themselves."""
    if not lam.is_self_conjugate():
        raise ValueError(f"{lam!r} is not self-conjugate")
    dec = ordinary_decompose(lam, p)
    if dec.core:
        raise ValueError(f"{lam!r} is not a {p}-cocore")
    runners = _ordinary_runners(lam, p)
    pairs = []
    for j in range((p + 1) // 2):
        fr = runners[j]
        arms = sorted(fr.black_above, reverse=True)
        legs = sorted(fr.white_below, reverse=True)
        for x, x_star in zip(arms, legs):
            pairs.append((2 * (p * x + j) + 1, 2 * (p * x_star + (p - 1 - j)) + 1))
    return tuple(sorted(pairs))
