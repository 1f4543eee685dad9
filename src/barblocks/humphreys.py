"""Labels for the sign-twisted product of two double covers and its
index-two subgroup, their tau rules, block label sets, and the core/cocore
correspondence.

Everything here is label algebra: a character of the twisted product is
identified by a pair of strict partitions (mu of the core size, nu of the
cocore size) and a variant tag.  Degrees enter only through p-valuations,
which add across the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass

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
from .galois import GaloisElement, tau_i, tau_partition
from .littlewood import _BAR, _checked, _members, bar_decompose, bar_reconstruct
from .partitions import BarPartition

G = "g"
GPLUS = "gplus"
_GGROUPS = (G, GPLUS)


@dataclass(frozen=True)
class GCharLabel:
    mu: BarPartition
    nu: BarPartition
    group: str
    variant: str

    def __post_init__(self):
        if self.group not in _GGROUPS:
            raise ValueError(f"group must be one of {_GGROUPS}")
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}")

    def sort_key(self):
        return (self.mu.parts, self.nu.parts, _VARIANTS.index(self.variant))

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "nu": self.nu.to_json(),
            "group": self.group,
            "variant": self.variant,
        }

    @classmethod
    def from_json(cls, data: dict) -> "GCharLabel":
        return cls(
            BarPartition(data["mu"]), BarPartition(data["nu"]), data["group"], data["variant"]
        )


@dataclass(frozen=True)
class GBlockId:
    kappa: BarPartition
    w: int
    group: str
    p: int

    def __post_init__(self):
        if self.group not in _GGROUPS:
            raise ValueError(f"group must be one of {_GGROUPS}")
        if self.w < 1:
            raise ValueError("w must be positive")
        if bar_decompose(self.kappa, self.p).weight != 0:
            raise ValueError(f"{self.kappa!r} is not a {self.p}-bar core")


def classify_g(mu: BarPartition, nu: BarPartition, group: str) -> tuple[GCharLabel, ...]:
    """On the full twisted product, equal component signs give one
    self-associate label and opposite signs an associate pair; on the
    index-two subgroup the classification flips."""
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
    if w < 0:
        raise ValueError("w must be non-negative")
    return _members(_BAR, *_checked(_BAR, (), p), w)[::-1]


def block_members(block: GBlockId) -> tuple[GCharLabel, ...]:
    out = []
    for mu in cocores(block.w, block.p):
        out.extend(classify_g(block.kappa, mu, block.group))
    return tuple(sorted(out, key=GCharLabel.sort_key))


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
    dec = bar_decompose(label.nu, p)
    if dec.core:
        raise ValueError(f"{label.nu!r} is not a {p}-cocore")
    lam = bar_reconstruct(label.mu, dec.quotient, p)
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
