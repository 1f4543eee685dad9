"""Labels for the sign-twisted product of two double covers and its
index-two subgroup, their tau rules, block label sets, and the core/cocore
correspondence.

Everything here is label algebra: a character of the twisted product is
identified by a pair of strict partitions (mu of the core size, nu of the
cocore size) and a variant tag.  Degrees enter only through p-valuations,
which add across the two factors.
"""

from __future__ import annotations

from operator import index

from .characters import (
    ATILDE,
    MINUS,
    PLUS,
    SPIN,
    STILDE,
    WHOLE,
    CharLabel,
    _VARIANTS,
    _defect_and_heights,
    nu_p_factorial,
    spin_degree_valuation,
)
from .galois import GaloisElement, _odd_prime, tau_i, tau_partition
from .littlewood import _BAR, _checked, _members, _rebuilt, bar_decompose
from .partitions import BarPartition, _as, _Record

G = "g"
GPLUS = "gplus"
_GGROUPS = (G, GPLUS)


class GCharLabel(_Record):
    __slots__ = ("mu", "nu", "group", "variant")

    def __init__(self, mu: BarPartition, nu: BarPartition, group: str, variant: str):
        if group not in _GGROUPS:
            raise ValueError(f"group must be one of {_GGROUPS}")
        if variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")
        self._set(_as(BarPartition, mu), _as(BarPartition, nu), group, variant)

    def sort_key(self):
        return (self.mu.parts, self.nu.parts, _VARIANTS.index(self.variant))


class GBlockId(_Record):
    __slots__ = ("kappa", "w", "group", "p")

    def __init__(self, kappa: BarPartition, w: int, group: str, p: int):
        kappa, w = _as(BarPartition, kappa), index(w)
        p = _odd_prime(p)
        if group not in _GGROUPS:
            raise ValueError(f"group must be one of {_GGROUPS}")
        if w < 1:
            raise ValueError("w must be positive")
        if bar_decompose(kappa, p).weight != 0:
            raise ValueError(f"{kappa!r} is not a {p}-bar core")
        self._set(kappa, w, group, p)


def classify_g(mu: BarPartition, nu: BarPartition, group: str) -> tuple[GCharLabel, ...]:
    """On the full twisted product, equal component signs give one
    self-associate label and opposite signs an associate pair; on the
    index-two subgroup the classification flips."""
    mu, nu = _as(BarPartition, mu), _as(BarPartition, nu)
    same_sign = mu.sign() == nu.sign()
    whole = same_sign if group == G else not same_sign
    if whole:
        return (GCharLabel(mu, nu, group, WHOLE),)
    return (GCharLabel(mu, nu, group, PLUS), GCharLabel(mu, nu, group, MINUS))


def tau_g(label: GCharLabel, f: GaloisElement) -> int:
    """Sign by which f permutes the pair containing the label; both-negative
    pairs pick up the extra tau(i, f) factor."""
    if label.variant == WHOLE:
        return 1
    t = tau_partition(label.mu, f) * tau_partition(label.nu, f)
    if label.mu.sign() == -1 and label.nu.sign() == -1:
        t *= tau_i(f)
    return t


def cocores(w: int, p: int) -> tuple[BarPartition, ...]:
    """Strict partitions of p*w with empty p-bar core, descending order: the
    reconstructions over the empty core of every bar quotient of weight w."""
    w = index(w)
    if w < 0:
        raise ValueError("w must be non-negative")
    return _members(_BAR, *_checked(_BAR, (), p), w)[::-1]


def block_members(block: GBlockId) -> tuple[GCharLabel, ...]:
    nus = _members(_BAR, (), block.p, block.w)  # ascending, the order of GCharLabel.sort_key
    return tuple(label for nu in nus for label in classify_g(block.kappa, nu, block.group))


_GROUP_OF = {STILDE: G, ATILDE: GPLUS}
_GROUP_BACK = {G: STILDE, GPLUS: ATILDE}


def phi(label: CharLabel, p: int) -> GCharLabel:
    """Send the spin label of a strict partition to the twisted-product
    label of its core/cocore pair, keeping the variant."""
    if label.flavor != SPIN:
        raise ValueError("phi is defined on spin labels")
    dec = bar_decompose(label.partition, p)
    return GCharLabel(dec.core, dec.cocore, _GROUP_OF[label.group], label.variant)


def phi_inverse(label: GCharLabel, p: int) -> CharLabel:
    """The spin label whose core is mu and whose quotient is nu's: the
    quotient of a validated cocore placed on the runners of mu's
    characteristic vector, with no second check of either."""
    dec = bar_decompose(label.nu, p)
    if dec.core:
        raise ValueError(f"{label.nu!r} is not a {p}-cocore")
    core = bar_decompose(label.mu, p)
    if core.weight:
        raise ValueError(f"{label.mu!r} is not a {p}-core")
    lam = _rebuilt(_BAR, dec.quotient, core.charvec, p)
    return CharLabel(lam, _GROUP_BACK[label.group], SPIN, label.variant)


def g_degree_valuation(label: GCharLabel, p: int) -> int:
    """Valuations add across the two tensor factors."""
    return spin_degree_valuation(label.mu, p) + spin_degree_valuation(label.nu, p)


def g_height_and_defect(members, p: int):
    """Heights and defect of a twisted-product block; the group-order
    valuation is nu_p(r!) + nu_p((pw)!)."""
    vals = {label: g_degree_valuation(label, p) for label in members}
    return _defect_and_heights(
        vals, lambda label: nu_p_factorial(label.mu.size, p) + nu_p_factorial(label.nu.size, p)
    )
