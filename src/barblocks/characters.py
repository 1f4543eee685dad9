"""Character and class labels for the double covers of the symmetric and
alternating groups, hook-length data, degree valuations, heights and defects.

Only p-valuations of degrees are ever computed (p odd); the 2-power left
open by the degree formula is invisible to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .galois import GaloisElement, tau_partition, tau_selfconjugate
from .partitions import BarPartition, Partition

STILDE = "stilde"
ATILDE = "atilde"
SPIN = "spin"
NONSPIN = "nonspin"
WHOLE = "whole"
PLUS = "plus"
MINUS = "minus"

_GROUPS = (STILDE, ATILDE)
_FLAVORS = (SPIN, NONSPIN)
_VARIANTS = (WHOLE, PLUS, MINUS)


@dataclass(frozen=True)
class CharLabel:
    partition: Partition
    group: str
    flavor: str
    variant: str

    def __post_init__(self):
        if self.group not in _GROUPS:
            raise ValueError(f"group must be one of {_GROUPS}")
        if self.flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        if self.flavor == SPIN and not isinstance(self.partition, BarPartition):
            raise ValueError("spin labels need a strict partition")

    def sort_key(self):
        return (self.partition.parts, _VARIANTS.index(self.variant))

    def to_json(self) -> dict:
        return {
            "partition": self.partition.to_json(),
            "group": self.group,
            "flavor": self.flavor,
            "variant": self.variant,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CharLabel":
        kind = BarPartition if data["flavor"] == SPIN else Partition
        return cls(kind(data["partition"]), data["group"], data["flavor"], data["variant"])


@dataclass(frozen=True)
class ClassLabel:
    cycle_type: Partition
    group: str

    def __post_init__(self):
        if self.group not in _GROUPS:
            raise ValueError(f"group must be one of {_GROUPS}")


def classify(partition: Partition, group: str, flavor: str = SPIN) -> tuple[CharLabel, ...]:
    """Labels carried by a partition: one self-associate label, or an
    associate plus/minus pair."""
    if flavor == SPIN:
        lam = partition if isinstance(partition, BarPartition) else BarPartition(partition.parts)
        whole = lam.sign() == (1 if group == STILDE else -1)
    else:  # CharLabel refuses any other flavor
        lam = partition
        # on the full group every label is self-associate; on the index-two
        # subgroup the self-conjugate partitions split
        whole = group == STILDE or not lam.is_self_conjugate()
    if whole:
        return (CharLabel(lam, group, flavor, WHOLE),)
    return (
        CharLabel(lam, group, flavor, PLUS),
        CharLabel(lam, group, flavor, MINUS),
    )


def is_split(c: ClassLabel) -> bool:
    """Whether the two lifts of the class stay non-conjugate in the cover."""
    if all(part % 2 for part in c.cycle_type):
        return True
    parts = c.cycle_type.parts
    if len(set(parts)) != len(parts):
        return False
    want = -1 if c.group == STILDE else 1
    return c.cycle_type.sign() == want


def bar_hook_lengths(lam: BarPartition) -> tuple[int, ...]:
    """Bar hook lengths: for each part, its sums with the later parts plus
    the values 1..part not realized as a difference with a later part."""
    parts = lam.parts
    out = []
    for i, a in enumerate(parts):
        later = parts[i + 1 :]
        out.extend(a + b for b in later)
        diffs = {a - b for b in later}
        out.extend(x for x in range(1, a + 1) if x not in diffs)
    return tuple(sorted(out, reverse=True))


def nu_p(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("0 has no p-valuation")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def nu_p_factorial(n: int, p: int) -> int:
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


@lru_cache(maxsize=None)
def _valuation(parts: tuple[int, ...], p: int, spin: bool) -> int:
    """nu_p of n! over the product of the bar hook lengths (spin) or of the
    hook lengths (non-spin) of the partition with these parts."""
    hooks = bar_hook_lengths(BarPartition(parts)) if spin else Partition(parts).hook_lengths()
    return nu_p_factorial(sum(parts), p) - sum(nu_p(h, p) for h in hooks if h % p == 0)


def spin_degree_valuation(lam: BarPartition, p: int) -> int:
    """nu_p of the spin character degree of a strict partition."""
    return _valuation(lam.parts, p, True)


def nonspin_degree_valuation(lam: Partition, p: int) -> int:
    """nu_p of the ordinary character degree (hook length formula)."""
    return _valuation(lam.parts, p, False)


def degree_valuation(label: CharLabel, p: int) -> int:
    """nu_p of the character degree; identical for the two members of an
    associate pair since the index is 2 and p is odd."""
    return _valuation(label.partition.parts, p, label.flavor == SPIN)


def _defect_and_heights(vals: dict, order_valuation) -> tuple:
    """defect = nu_p(group order) - min valuation and height = valuation -
    min valuation; order_valuation(label) reads the order off any member."""
    if not vals:
        raise ValueError("need at least one label")
    low = min(vals.values())
    defect = order_valuation(next(iter(vals))) - low
    return defect, {label: v - low for label, v in vals.items()}


def height_and_defect(members, n: int, p: int):
    """Block defect and per-label heights from degree valuations alone; the
    group-order valuation is nu_p(n!)."""
    vals = {label: degree_valuation(label, p) for label in members}
    return _defect_and_heights(vals, lambda label: nu_p_factorial(n, p))


def label_tau(label: CharLabel, f: GaloisElement) -> int:
    """Sign by which f permutes the pair a label belongs to; self-associate
    labels are fixed."""
    if label.variant == WHOLE:
        return 1
    if label.flavor == SPIN:
        return tau_partition(label.partition, f)
    return tau_selfconjugate(label.partition, f)
