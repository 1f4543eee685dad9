"""Character labels for the double covers of the symmetric and
alternating groups, hook-length data, degree valuations, heights and defects.

Only p-valuations of degrees are ever computed, p an odd prime; the 2-power
left open by the degree formula is invisible to them.
"""

from __future__ import annotations

from functools import lru_cache

from .galois import GaloisElement, _odd_prime, tau_partition, tau_selfconjugate
from .partitions import BarPartition, Partition, _as, _Record

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


class CharLabel(_Record):
    """One irreducible character: a partition, the group, the flavor and the
    variant (whole, plus or minus).  The partition is read by flavor: as a
    BarPartition for a spin label and as a Partition for a non-spin one.

    The constructor checks each field alone, not the variant against the
    partition; ``classify`` is the source of valid labels.  ``psi`` and
    ``nonspin_psi`` build candidate images with it on purpose, so that
    ``blocks._check_map`` can report a map that leaves its target block
    instead of failing while the map is built.
    """

    __slots__ = ("partition", "group", "flavor", "variant")

    def __init__(self, partition: Partition, group: str, flavor: str, variant: str):
        if group not in _GROUPS:
            raise ValueError(f"group must be one of {_GROUPS}")
        if flavor not in _FLAVORS:
            raise ValueError(f"flavor must be one of {_FLAVORS}")
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        read = BarPartition if flavor == SPIN else Partition
        self._set(_as(read, partition), group, flavor, variant)

    def sort_key(self):
        return (self.partition.parts, _VARIANTS.index(self.variant))


def classify(partition: Partition, group: str, flavor: str = SPIN) -> tuple[CharLabel, ...]:
    """Labels carried by a partition: one self-associate label, or an
    associate plus/minus pair."""
    if flavor == SPIN:
        lam = _as(BarPartition, partition)
        whole = lam.sign() == (1 if group == STILDE else -1)
    else:  # CharLabel refuses any other flavor
        lam = _as(Partition, partition)
        # on the full group every label is self-associate; on the index-two
        # subgroup the self-conjugate partitions split
        whole = group == STILDE or not lam.is_self_conjugate()
    if whole:
        return (CharLabel(lam, group, flavor, WHOLE),)
    return (
        CharLabel(lam, group, flavor, PLUS),
        CharLabel(lam, group, flavor, MINUS),
    )


def bar_hook_lengths(lam: BarPartition) -> tuple[int, ...]:
    """Bar hook lengths: for each part, its sums with the later parts plus
    the values 1..part not realized as a difference with a later part."""
    parts = _as(BarPartition, lam).parts
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


def _hook_sum(parts: tuple[int, ...], p: int, spin: bool) -> int:
    """The sum of nu_p over the bar hook lengths (spin) or the hook lengths
    (non-spin) of the partition with these parts, p unchecked.  With a each
    part (spin) or first-column hook and b each later one, a's row holds 1..a
    but the differences a-b, plus the sums a+b if spin; only the hooks p
    divides count, and nu_p(a!) is the sum over the multiples of p up to a.
    No hook exceeds the size, so the sum is 0 below size p."""
    if sum(parts) < p:
        return 0
    if not spin:
        parts = tuple(x + len(parts) - 1 - i for i, x in enumerate(parts))
    v = 0
    for i, a in enumerate(parts):
        v += nu_p_factorial(a, p)
        for b in parts[i + 1 :]:
            if not (a - b) % p:
                v -= nu_p(a - b, p)
            if spin and not (a + b) % p:
                v += nu_p(a + b, p)
    return v


@lru_cache(maxsize=4096, typed=True)
def _valuation(parts: tuple[int, ...], p: int, spin: bool) -> int:
    """nu_p of n! over the product of the bar hook lengths (spin) or of the
    hook lengths (non-spin) of the partition with these parts.

    Every valuation and height reads its degrees here, so p is checked here,
    once per distinct label: an odd prime, or "p must be an odd prime".  The
    memo is typed, so a float p misses it and is refused like any other."""
    p = _odd_prime(p)
    return nu_p_factorial(sum(parts), p) - _hook_sum(parts, p, spin)


def spin_degree_valuation(lam: BarPartition, p: int) -> int:
    """nu_p of the spin character degree of a strict partition."""
    return _valuation(_as(BarPartition, lam).parts, p, True)


def nonspin_degree_valuation(lam: Partition, p: int) -> int:
    """nu_p of the ordinary character degree (hook length formula)."""
    return _valuation(_as(Partition, lam).parts, p, False)


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
