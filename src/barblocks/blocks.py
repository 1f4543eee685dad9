"""Spin blocks of the double covers, non-spin blocks of the alternating-group
cover, and the core-replacing bijections between them.

Membership comes from quotients.  The members of the block (kappa, w) are the
reconstructions over kappa of every quotient of total weight w: a strict head
component and (p-1)/2 ordinary ones for a spin block, p ordinary ones for a
non-spin block.  The engine in littlewood.py builds this list once per (kind,
kappa, w, p), and both spin groups share it.  ``_blocks_of`` lists the blocks
of degree n, those over the p-bar cores kappa with p | n - |kappa|.
``_members_of`` gives the members of a block of any kind and ``_heights_of``
its defect and heights from hook lengths; these serve the map checks of
suites.py only.  The ``blocks`` listing reads each height off the member's
quotient instead, in the walk that builds the members (``_listed``), and
computes no hook of a whole label, so the hook route is its independent
check.  bar_cores and selfconjugate_cores build the cores of both
kinds by one walk over their characteristic vectors (littlewood._cores).
``equivariance_check`` spreads tau over the Galois sign classes
(galois._sign_classes): one evaluation per class, every f reported in order.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .characters import (
    ATILDE,
    NONSPIN,
    SPIN,
    STILDE,
    WHOLE,
    CharLabel,
    _hook_sum,
    classify,
    height_and_defect,
    label_tau,
)
from .galois import (
    GaloisElement,
    _odd_prime,
    _sign_classes,
    tau_partition,
    tau_selfconjugate,
)
from .humphreys import (
    G, GPLUS, GBlockId, GCharLabel, block_members, classify_g, g_height_and_defect, phi, tau_g,
)
from .littlewood import _BAR, _ORDINARY, _cores, _members, _rebuilt, bar_decompose, ordinary_decompose
from .partitions import BarPartition, Partition, _as, _Record, enumerate_partitions


def strict_partitions_of(n: int) -> tuple[BarPartition, ...]:
    return tuple(enumerate_partitions(n, "strict"))


def partitions_of(n: int) -> tuple[Partition, ...]:
    return tuple(enumerate_partitions(n, "all"))


def bar_cores(p: int, max_size: int) -> tuple[BarPartition, ...]:
    """All p-bar cores of size at most max_size, by size then descending."""
    return _cores(_BAR, p, max_size)


def selfconjugate_cores(p: int, max_size: int) -> tuple[Partition, ...]:
    """All self-conjugate p-cores of size at most max_size, by size then
    descending."""
    return _cores(_ORDINARY, p, max_size)


class SpinBlockId(_Record):
    __slots__ = ("kappa", "w", "group", "p")

    def __init__(self, kappa: BarPartition, w: int, group: str, p: int):
        kappa, w = _as(BarPartition, kappa), operator.index(w)
        p = _odd_prime(p)
        if group not in (STILDE, ATILDE):
            raise ValueError(f"group must be {STILDE!r} or {ATILDE!r}")
        if w < 0:
            raise ValueError("w must be non-negative")
        if bar_decompose(kappa, p).weight != 0:
            raise ValueError(f"{kappa!r} is not a {p}-bar core")
        self._set(kappa, w, group, p)

    @property
    def n(self) -> int:
        return self.kappa.size + self.p * self.w


class NonSpinBlockId(_Record):
    __slots__ = ("kappa", "w", "p")

    def __init__(self, kappa: Partition, w: int, p: int):
        kappa, w = _as(Partition, kappa), operator.index(w)
        p = _odd_prime(p)
        if not kappa.is_self_conjugate():
            raise ValueError(f"{kappa!r} is not self-conjugate")
        if ordinary_decompose(kappa, p).weight != 0:
            raise ValueError(f"{kappa!r} is not a {p}-core")
        if w < 0:
            raise ValueError("w must be non-negative")
        self._set(kappa, w, p)

    @property
    def n(self) -> int:
        return self.kappa.size + self.p * self.w


@lru_cache(maxsize=None)
def spin_block_members(block: SpinBlockId) -> tuple[CharLabel, ...]:
    lams = _members(_BAR, block.kappa.parts, block.p, block.w)
    return tuple(label for lam in lams for label in classify(lam, block.group, SPIN))


def _orbit_rep(lam: Partition) -> Partition:
    star = lam.conjugate()
    return lam if lam.parts >= star.parts else star


@lru_cache(maxsize=None)
def nonspin_block_members(block: NonSpinBlockId) -> tuple[CharLabel, ...]:
    """Labels of the alternating-cover non-spin block: one label per
    conjugation orbit {lam, lam*}, split into a pair when lam = lam*, at the
    larger of lam and lam* (the core is self-conjugate, so both are members)."""
    lams = _members(_ORDINARY, block.kappa.parts, block.p, block.w)
    reps = (lam for lam in lams if _orbit_rep(lam) == lam)
    return tuple(label for lam in reps for label in classify(lam, ATILDE, NONSPIN))


def _blocks_of(n: int, p: int, group: str) -> list:
    """The blocks of degree n: one for each p-bar core kappa with p | n - |kappa|,
    by (size, parts) for the spin groups; the G and G+ blocks keep the order
    of bar_cores and need weight at least 1."""
    spin = group in (STILDE, ATILDE)
    cores = [k for k in bar_cores(p, n) if (n - k.size) % p == 0 and (spin or k.size < n)]
    if spin:
        cores.sort(key=lambda k: (k.size, k.parts))
    block = SpinBlockId if spin else GBlockId
    return [block(kappa, (n - kappa.size) // p, group, p) for kappa in cores]


def _members_of(block) -> tuple:
    """The member labels of a G/G+, spin or non-spin block."""
    if isinstance(block, GBlockId):
        return block_members(block)
    if isinstance(block, SpinBlockId):
        return spin_block_members(block)
    return nonspin_block_members(block)


def _heights_of(block, members) -> tuple:
    """(defect, heights) of block, for its labels in members, from hook
    lengths: the route of the map checks in suites.py."""
    if isinstance(block, GBlockId):
        return g_height_and_defect(members, block.p)
    return height_and_defect(members, block.n, block.p)


def _listed(block) -> tuple:
    """The defect of a spin or G/G+ block and its (label, height) rows, in
    the order of _members_of(block), read off the quotients.  The hooks of a
    label that p divides are p times the hooks of its quotient components,
    bar hooks for the strict head (J. B. Olsson, Combinatorics and
    Representations of Finite Groups, 1993).  So with S the sum of nu_p
    over the hooks of the components (characters._hook_sum, taken once per
    component shape by the walk that builds the members), nu_p(deg) =
    nu_p(n!) - w - S, the height is max S - S and the defect w + max S.  A
    G/G+ label (kappa, nu) reads S off the cocore nu: kappa, a p-bar core,
    has no bar hook that p divides, so it adds nu_p(|kappa|!) to the degree
    valuation and the group order of every member alike."""
    spin = isinstance(block, SpinBlockId)
    lams, sums = _members(_BAR, block.kappa.parts if spin else (), block.p, block.w, _hook_sum)
    top = max(sums)

    def labels(lam):
        return classify(lam, block.group, SPIN) if spin else classify_g(block.kappa, lam, block.group)

    return block.w + top, ((label, top - s) for lam, s in zip(lams, sums) for label in labels(lam))


class LabelMap(_Record):
    __slots__ = ("source", "target", "pairs")

    def __init__(self, source: object, target: object, pairs: tuple[tuple[object, object], ...]):
        self._set(source, target, pairs)


def phi_map(block: SpinBlockId) -> LabelMap:
    """The core/cocore correspondence on a whole spin block."""
    target = GBlockId(block.kappa, block.w, G if block.group == STILDE else GPLUS, block.p)
    pairs = tuple((label, phi(label, block.p)) for label in spin_block_members(block))
    return LabelMap(block, target, pairs)


_OTHER = {STILDE: ATILDE, ATILDE: STILDE}


def psi(source: SpinBlockId, target_core: BarPartition, allow_reversed: bool = False) -> LabelMap:
    """Replace the core of every member label by target_core.

    Cores of equal sign map a block to the block of the same cover type;
    the sign-crossing direction goes from the symmetric-type block with a
    negative core to the alternating-type block with a positive one (or back).
    The reversed crossing is only built when allow_reversed is set: it is a
    bijection but does not commute with the Galois action.
    """
    p = source.p
    target_core = _as(BarPartition, target_core)
    s_sign, t_sign = source.kappa.sign(), target_core.sign()
    if s_sign == t_sign:
        target_group = source.group
    elif allow_reversed or (source.group, s_sign) in ((STILDE, -1), (ATILDE, 1)):
        target_group = _OTHER[source.group]
    else:
        raise ValueError(
            "crossing maps require a negative-sign core on the symmetric side "
            "and a positive one on the alternating side (allow_reversed overrides)"
        )
    target = SpinBlockId(target_core, source.w, target_group, p)
    charvec = bar_decompose(target_core, p).charvec
    pairs = []
    for label in spin_block_members(source):
        image = _rebuilt(_BAR, bar_decompose(label.partition, p).quotient, charvec, p)
        pairs.append((label, CharLabel(image, target_group, SPIN, label.variant)))
    return LabelMap(source, target, tuple(pairs))


def nonspin_psi(kappa: Partition, target_core: Partition, w: int, p: int) -> LabelMap:
    """Core replacement between non-spin alternating-cover blocks labeled by
    self-conjugate cores."""
    source = NonSpinBlockId(kappa, w, p)
    target = NonSpinBlockId(target_core, w, p)
    charvec = ordinary_decompose(target.kappa, p).charvec
    pairs = []
    for label in nonspin_block_members(source):
        image = _rebuilt(_ORDINARY, ordinary_decompose(label.partition, p).quotient, charvec, p)
        if label.variant == WHOLE:
            image = _orbit_rep(image)
        pairs.append((label, CharLabel(image, ATILDE, NONSPIN, label.variant)))
    return LabelMap(source, target, tuple(pairs))


def _tau_of(label, f: GaloisElement) -> int:
    if isinstance(label, GCharLabel):
        return tau_g(label, f)
    return label_tau(label, f)


def equivariance_check(lmap: LabelMap, fs) -> VerificationReport:
    """Compare the permutation sign of every automorphism on each associate
    pair with the sign on its image; self-associate labels must map to
    self-associate labels.  The automorphisms must share one prime, the
    source block's p when the map has a source."""
    from .suites import VerificationReport

    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one automorphism")
    p = fs[0].p
    if any(f.p != p for f in fs):
        raise ValueError(f"automorphisms of different primes: {sorted({f.p for f in fs})}")
    if getattr(lmap.source, "p", p) != p:
        raise ValueError(f"automorphisms of p={p} on a block of p={lmap.source.p}")
    spread = _sign_classes(fs)
    violations = []
    cases = 0
    for src, dst in lmap.pairs:
        if (src.variant == WHOLE) != (dst.variant == WHOLE):
            violations.append(
                {"label": src.to_json(), "image": dst.to_json(), "reason": "variant mismatch"}
            )
            continue
        if src.variant == WHOLE:
            cases += 1
            continue
        if src.variant != "plus":
            continue  # the minus member carries the same tau
        cases += len(fs)
        signs = spread(lambda f: (_tau_of(src, f), _tau_of(dst, f)))
        violations += [
            {"label": src.to_json(), "image": dst.to_json(), "f": f.to_json(), "tau_source": ts, "tau_image": td}
            for f, (ts, td) in zip(fs, signs)
            if ts != td
        ]
    notes = []
    src_core = getattr(lmap.source, "kappa", None)
    dst_core = getattr(lmap.target, "kappa", None)
    if src_core is not None and dst_core is not None:
        sigma = GaloisElement.sigma(p)
        tau = tau_selfconjugate if isinstance(lmap.source, NonSpinBlockId) else tau_partition
        t1, t2 = tau(src_core, sigma), tau(dst_core, sigma)
        notes.append(f"core tau under sigma_p: source {t1}, target {t2}, matching={t1 == t2}")
    return VerificationReport("equivariance", p, 0, cases, tuple(violations), tuple(notes))
