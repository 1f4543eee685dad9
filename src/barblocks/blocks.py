"""Spin blocks of the double covers, non-spin blocks of the alternating-group
cover, the core-replacing bijections between them, and the exhaustive
verification suites.

Membership comes from quotients, not from filtering every partition of n.  The
members of the block (kappa, w) are the reconstructions over kappa of every
quotient of total weight w: a strict head component and (p-1)/2 ordinary ones
for a spin block, p ordinary ones for a non-spin block.  The engine in
littlewood.py builds this list once per (kind, kappa, w, p), and both spin
groups share it.  The blocks of degree n are those over the p-bar cores kappa
with p | n - |kappa|, and bar_cores builds the cores from their
characteristic vectors.

The suites form one table, SUITES, from a name to a function
(p, bound, w_max) -> (cases, violations, notes).  Most entries are data
for one of two runners:

* ``_sweep`` pairs a domain (the strict partitions up to the bound, the
  self-conjugate ones, or m in 1..bound) with a check of one element that
  returns (cases, witnesses);
* ``_replace_cores`` pairs a side (spin or non-spin: its cores, the map, the
  block members and the extra witness fields) with the relation between
  source and target cores and the groups to map.

``little``, ``tau_oracle``, ``blocks``, ``census`` and ``crossing_fails`` are
plain functions in the same table; ``little`` and ``tau_oracle`` prepare what
every element shares once per sweep and then run ``_sweep``.  Every domain is
walked in a fixed order and every witness is a dict whose keys and key order
are part of the report, so reports are byte-stable.  Witnesses are built only
when a check fails.

Library functions are looked up by their module-global names when they are
called, never stored in the table at import time.  A wrapper that rebinds such
a name, like a call tracer or a test's monkeypatch, then sees every call.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable

from .abacus import BarAbacus
from .characters import (
    ATILDE,
    NONSPIN,
    SPIN,
    STILDE,
    WHOLE,
    CharLabel,
    classify,
    degree_valuation,
    height_and_defect,
    label_tau,
)
from .galois import (
    ORACLE_MAX_M,
    GaloisElement,
    oracle_tau_sqrt,
    standard_generators,
    tau_partition,
    tau_selfconjugate,
    tau_sqrt,
)
from .humphreys import (
    G,
    GPLUS,
    GBlockId,
    GCharLabel,
    block_members,
    g_degree_valuation,
    g_height_and_defect,
    phi,
    phi_inverse,
    tau_g,
)
from .littlewood import (
    _BAR,
    _ORDINARY,
    _bar_cores,
    _checked,
    _members,
    bar_decompose,
    bar_reconstruct,
    ordinary_decompose,
    ordinary_reconstruct,
    paired_parts,
)
from .partitions import BarPartition, Partition, _partitions_of, enumerate_partitions


def strict_partitions_of(n: int) -> tuple[BarPartition, ...]:
    return _partitions_of(n, "strict")


def partitions_of(n: int) -> tuple[Partition, ...]:
    return _partitions_of(n, "all")


@lru_cache(maxsize=None)
def bar_cores(p: int, max_size: int) -> tuple[BarPartition, ...]:
    """All p-bar cores of size at most max_size, by size then descending:
    the cores of the characteristic vectors within the size budget."""
    _checked(_BAR, (), p)  # the modulus check of bar_decompose
    cores = sorted(_bar_cores(p, max_size), reverse=True)
    return tuple(map(BarPartition, sorted(cores, key=sum)))


@lru_cache(maxsize=None)
def selfconjugate_cores(p: int, max_size: int) -> tuple[Partition, ...]:
    out = []
    for n in range(max_size + 1):
        out.extend(
            k
            for k in enumerate_partitions(n, "self_conjugate")
            if ordinary_decompose(k, p).weight == 0
        )
    return tuple(out)


@dataclass(frozen=True)
class SpinBlockId:
    kappa: BarPartition
    w: int
    group: str
    p: int

    def __post_init__(self):
        if self.group not in (STILDE, ATILDE):
            raise ValueError(f"group must be {STILDE!r} or {ATILDE!r}")
        if self.w < 0:
            raise ValueError("w must be non-negative")
        if bar_decompose(self.kappa, self.p).weight != 0:
            raise ValueError(f"{self.kappa!r} is not a {self.p}-bar core")

    @property
    def n(self) -> int:
        return self.kappa.size + self.p * self.w


@dataclass(frozen=True)
class NonSpinBlockId:
    kappa: Partition
    w: int
    p: int

    def __post_init__(self):
        if not self.kappa.is_self_conjugate():
            raise ValueError(f"{self.kappa!r} is not self-conjugate")
        if ordinary_decompose(self.kappa, self.p).weight != 0:
            raise ValueError(f"{self.kappa!r} is not a {self.p}-core")
        if self.w < 0:
            raise ValueError("w must be non-negative")

    @property
    def n(self) -> int:
        return self.kappa.size + self.p * self.w


@lru_cache(maxsize=None)
def spin_block_members(block: SpinBlockId) -> tuple[CharLabel, ...]:
    out = []
    for lam in _members(_BAR, block.kappa.parts, block.p, block.w):
        out.extend(classify(lam, block.group, SPIN))
    return tuple(sorted(out, key=CharLabel.sort_key))


def _orbit_rep(lam: Partition) -> Partition:
    star = lam.conjugate()
    return lam if lam.parts >= star.parts else star


@lru_cache(maxsize=None)
def nonspin_block_members(block: NonSpinBlockId) -> tuple[CharLabel, ...]:
    """Labels of the alternating-cover non-spin block: one label per
    conjugation orbit {lam, lam*}, split into a pair when lam = lam*."""
    out = set()
    for lam in _members(_ORDINARY, block.kappa.parts, block.p, block.w):
        if lam.is_self_conjugate():
            out.update(classify(lam, ATILDE, NONSPIN))
        else:
            out.add(CharLabel(_orbit_rep(lam), ATILDE, NONSPIN, WHOLE))
    return tuple(sorted(out, key=CharLabel.sort_key))


@dataclass(frozen=True)
class LabelMap:
    source: object
    target: object
    pairs: tuple[tuple[object, object], ...]

    def as_dict(self) -> dict:
        return dict(self.pairs)


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
    if not isinstance(target_core, BarPartition):
        target_core = BarPartition(target_core)
    s_sign, t_sign = source.kappa.sign(), target_core.sign()
    if s_sign == t_sign:
        target_group = source.group
    elif (source.group, s_sign, t_sign) in ((STILDE, -1, 1), (ATILDE, 1, -1)):
        target_group = _OTHER[source.group]
    elif allow_reversed:
        target_group = _OTHER[source.group]
    else:
        raise ValueError(
            "crossing maps require a negative-sign core on the symmetric side "
            "and a positive one on the alternating side (allow_reversed overrides)"
        )
    target = SpinBlockId(target_core, source.w, target_group, p)
    pairs = []
    for label in spin_block_members(source):
        quotient = bar_decompose(label.partition, p).quotient
        image = bar_reconstruct(target_core, quotient, p)
        pairs.append((label, CharLabel(image, target_group, SPIN, label.variant)))
    return LabelMap(source, target, tuple(pairs))


def nonspin_psi(kappa: Partition, target_core: Partition, w: int, p: int) -> LabelMap:
    """Core replacement between non-spin alternating-cover blocks labeled by
    self-conjugate cores."""
    source = NonSpinBlockId(kappa, w, p)
    target = NonSpinBlockId(target_core, w, p)
    pairs = []
    for label in nonspin_block_members(source):
        quotient = ordinary_decompose(label.partition, p).quotient
        image = ordinary_reconstruct(target_core, quotient, p)
        if label.variant == WHOLE:
            pairs.append((label, CharLabel(_orbit_rep(image), ATILDE, NONSPIN, WHOLE)))
        else:
            pairs.append((label, CharLabel(image, ATILDE, NONSPIN, label.variant)))
    return LabelMap(source, target, tuple(pairs))


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    p: int
    bound: int
    cases: int
    violations: tuple[dict, ...]
    notes: tuple[str, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "p": self.p,
            "bound": self.bound,
            "cases": self.cases,
            "violations": list(self.violations),
            "notes": list(self.notes),
        }

    @classmethod
    def from_json(cls, data: dict) -> "VerificationReport":
        return cls(
            data["suite"],
            data["p"],
            data["bound"],
            data["cases"],
            tuple(data["violations"]),
            tuple(data["notes"]),
        )


def _tau_of(label, f: GaloisElement) -> int:
    if isinstance(label, GCharLabel):
        return tau_g(label, f)
    return label_tau(label, f)


def _core_tau(kappa, f: GaloisElement) -> int:
    """Sign of f on the pair labeled by a core: a bar core or a
    self-conjugate one."""
    if isinstance(kappa, BarPartition):
        return tau_partition(kappa, f)
    return tau_selfconjugate(kappa, f)


def equivariance_check(lmap: LabelMap, fs) -> VerificationReport:
    """Compare the permutation sign of every automorphism on each associate
    pair with the sign on its image; self-associate labels must map to
    self-associate labels."""
    fs = tuple(fs)
    p = fs[0].p
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
        for f in fs:
            cases += 1
            ts, td = _tau_of(src, f), _tau_of(dst, f)
            if ts != td:
                violations.append(
                    {
                        "label": src.to_json(),
                        "image": dst.to_json(),
                        "f": f.to_json(),
                        "tau_source": ts,
                        "tau_image": td,
                    }
                )
    notes = []
    src_core = getattr(lmap.source, "kappa", None)
    dst_core = getattr(lmap.target, "kappa", None)
    if src_core is not None and dst_core is not None:
        sigma = GaloisElement.sigma(p)
        t1, t2 = _core_tau(src_core, sigma), _core_tau(dst_core, sigma)
        notes.append(f"core tau under sigma_p: source {t1}, target {t2}, matching={t1 == t2}")
    return VerificationReport("equivariance", p, 0, cases, tuple(violations), tuple(notes))


def _strict_upto(bound: int):
    for n in range(bound + 1):
        yield from strict_partitions_of(n)


def _selfconjugate_upto(bound: int):
    for n in range(bound + 1):
        yield from enumerate_partitions(n, "self_conjugate")


def _m_upto(bound: int):
    return range(1, bound + 1)


def _sweep(domain, check, gens=False):
    """The suite (p, bound, w_max) that runs check(x, p, fs) -> (cases,
    witnesses) on every x of domain(bound).  With gens, fs is the standard
    generators of p, built once per sweep; otherwise it is None, so that a
    check that reads no generators costs none at a large p."""

    def run(p, bound, w_max):
        fs = standard_generators(p) if gens else None
        cases, violations = 0, []
        for x in domain(bound):
            n, found = check(x, p, fs)
            cases += n
            violations.extend(found)
        return cases, violations, []

    return run


def _witness(lam, **fields) -> dict:
    """A violation at the partition lam, with its fields in the given order."""
    return {"lambda": lam.to_json(), **fields}


def _roundtrips(lam, p, fs):
    reasons = []
    if lam.frobenius().to_partition() != Partition(lam.parts):
        reasons.append("frobenius round trip")
    ab = BarAbacus.from_partition(lam, p)
    if ab.to_partition() != lam:
        reasons.append("abacus round trip")
    if ab.twist().untwist() != ab:
        reasons.append("twist round trip")
    dec = bar_decompose(lam, p)
    if bar_reconstruct(dec.core, dec.quotient, p) != lam:
        reasons.append("decompose round trip")
    return 1, [_witness(lam, reason=reason) for reason in reasons]


def _lengths(lam, p, fs):
    dec = bar_decompose(lam, p)
    if lam.length == dec.core.length + dec.cocore.length - 2 * dec.d:
        return 1, ()
    core, cocore = dec.core.length, dec.cocore.length
    return 1, [_witness(lam, length=lam.length, core_length=core, cocore_length=cocore, d=dec.d)]


def _signs(lam, p, fs):
    dec = bar_decompose(lam, p)
    if lam.sign() == dec.core.sign() * dec.cocore.sign():
        return 1, ()
    core, cocore = dec.core.sign(), dec.cocore.sign()
    return 1, [_witness(lam, sign=lam.sign(), core_sign=core, cocore_sign=cocore)]


def _sizes(lam, p, fs):
    dec = bar_decompose(lam, p)
    if lam.size == dec.core.size + p * dec.weight:
        return 1, ()
    return 1, [_witness(lam, size=lam.size, core_size=dec.core.size, weight=dec.weight)]


def _durfee(lam, p, fs):
    dec = ordinary_decompose(lam, p)
    if lam.durfee() == dec.core.durfee() + dec.cocore.durfee() - 2 * dec.d:
        return 1, ()
    core, cocore = dec.core.durfee(), dec.cocore.durfee()
    return 1, [_witness(lam, durfee=lam.durfee(), core_durfee=core, cocore_durfee=cocore, d=dec.d)]


def _pairing(lam, p, fs):
    if bar_decompose(lam, p).core:
        return 0, ()
    pairs = paired_parts(lam, p)
    found = []
    if sorted(x for pair in pairs for x in pair) != sorted(x for x in lam if x % p):
        found.append(_witness(lam, pairs=[list(q) for q in pairs], reason="cover"))
    found += [_witness(lam, pair=[a, b], reason="sum") for a, b in pairs if (a + b) % p]
    return 1, found


def _suite_tau_oracle(p, bound, w_max):
    elements = [GaloisElement(p, e, s) for e in (0, 1, 2) for s in range(1, p)]

    def check(m, p, fs):
        found = []
        for f in elements:
            closed, exact = tau_sqrt(m, f), oracle_tau_sqrt(m, f)
            if closed != exact:
                found.append({"m": m, "f": f.to_json(), "closed": closed, "oracle": exact})
        return len(elements), found

    return _sweep(_m_upto, check)(p, bound, w_max)


def _suite_little(p, bound, w_max):
    sigma = GaloisElement.sigma(p)
    trivial = [f for f in standard_generators(p) if f.e == 0]
    eps = -1 if p % 4 == 3 else 1
    counts = {"i": 0, "ii": 0, "iii": 0}

    def check(lam, p, fs):
        dec = bar_decompose(lam, p)
        t_core = tau_partition(dec.core, sigma)
        t_cocore = tau_partition(dec.cocore, sigma)
        t_lam = tau_partition(lam, sigma)
        if dec.core.sign() == -1 and dec.cocore.sign() == -1:
            case, ok = "ii", t_lam == eps * t_core * t_cocore
        else:
            case, ok = "i", t_lam == t_core * t_cocore
        counts[case] += 1
        counts["iii"] += len(trivial)
        found = []
        if not ok:
            found.append(_witness(lam, case=case, tau=t_lam, tau_core=t_core, tau_cocore=t_cocore))
        for f in trivial:
            if tau_partition(lam, f) != tau_partition(dec.core, f) * tau_partition(dec.cocore, f):
                found.append(_witness(lam, case="iii", f=f.to_json()))
        return 1 + len(trivial), found

    cases, violations, _ = _sweep(_strict_upto, check)(p, bound, w_max)
    notes = [f"case_i={counts['i']}", f"case_ii={counts['ii']}", f"case_iii={counts['iii']}"]
    return cases, violations, notes


def _phi(lam, p, fs):
    cases, found = 0, []
    for group in (STILDE, ATILDE):
        for label in classify(lam, group, SPIN):
            glabel = phi(label, p)
            cases += 1
            if glabel.variant != label.variant:
                found.append({"label": label.to_json(), "reason": "variant"})
            if phi_inverse(glabel, p) != label:
                found.append({"label": label.to_json(), "reason": "inverse"})
            if label.variant == "plus":
                for f in fs:
                    cases += 1
                    if label_tau(label, f) != tau_g(glabel, f):
                        found.append({"label": label.to_json(), "f": f.to_json(), "reason": "tau"})
    return cases, found


def _valuation(lam, p, fs):
    dec = bar_decompose(lam, p)
    if dec.core.size >= p:
        return 0, ()
    label = classify(lam, STILDE, SPIN)[0]
    val = degree_valuation(label, p)
    gval = g_degree_valuation(phi(label, p), p)
    cocore_val = degree_valuation(classify(dec.cocore, STILDE, SPIN)[0], p)
    if val == gval == cocore_val:
        return 1, ()
    return 1, [_witness(lam, valuation=val, image_valuation=gval, cocore_valuation=cocore_val)]


def _tau_nonspin(lam, p, fs):
    dec = ordinary_decompose(lam, p)
    found = []
    for f in fs:
        lhs = tau_selfconjugate(lam, f)
        rhs = tau_selfconjugate(dec.core, f) * tau_selfconjugate(dec.cocore, f)
        if lhs != rhs:
            found.append(_witness(lam, f=f.to_json(), tau=lhs, product=rhs))
    return len(fs), found


def _suite_blocks(p, bound, w_max):
    violations = []
    cases = 0
    baseline = {}
    for w in range(1, w_max + 1):
        empty = SpinBlockId(BarPartition(), w, STILDE, p)
        baseline[w], _ = height_and_defect(spin_block_members(empty), empty.n, p)
    for kappa in bar_cores(p, bound):
        for w in range(1, w_max + 1):
            for group, ggroup in ((STILDE, G), (ATILDE, GPLUS)):
                cases += 1
                block = SpinBlockId(kappa, w, group, p)
                members = spin_block_members(block)
                gmembers = block_members(GBlockId(kappa, w, ggroup, p))
                lmap = phi_map(block)
                images = tuple(dst for _, dst in lmap.pairs)
                if sorted(images, key=GCharLabel.sort_key) != list(gmembers):
                    violations.append(
                        {"kappa": kappa.to_json(), "w": w, "group": group, "reason": "bijection"}
                    )
                    continue
                defect, heights = height_and_defect(members, block.n, p)
                gdefect, gheights = g_height_and_defect(gmembers, p)
                if defect != gdefect:
                    violations.append(
                        {
                            "kappa": kappa.to_json(),
                            "w": w,
                            "group": group,
                            "defect": defect,
                            "image_defect": gdefect,
                        }
                    )
                if defect != baseline[w]:
                    violations.append(
                        {
                            "kappa": kappa.to_json(),
                            "w": w,
                            "group": group,
                            "defect": defect,
                            "empty_core_defect": baseline[w],
                            "reason": "defect varies with core",
                        }
                    )
                for src, dst in lmap.pairs:
                    if heights[src] != gheights[dst]:
                        violations.append(
                            {
                                "kappa": kappa.to_json(),
                                "w": w,
                                "group": group,
                                "label": src.to_json(),
                                "height": heights[src],
                                "image_height": gheights[dst],
                            }
                        )
    return cases, violations, []


def _suite_census(p, bound, w_max):
    violations = []
    cases = 0
    for kappa in bar_cores(p, bound):
        plus_sign = kappa.sign() == 1
        want = {G: p if plus_sign else (p + 3) // 2, GPLUS: (p + 3) // 2 if plus_sign else p}
        for ggroup in (G, GPLUS):
            cases += 1
            got = len(block_members(GBlockId(kappa, 1, ggroup, p)))
            if got != want[ggroup]:
                violations.append(
                    {"kappa": kappa.to_json(), "group": ggroup, "count": got, "expected": want[ggroup]}
                )
    return cases, violations, []


def _check_map_heights(lmap, p, violations):
    src_members = tuple(s for s, _ in lmap.pairs)
    dst_members = tuple(d for _, d in lmap.pairs)
    sdef, sheights = height_and_defect(src_members, lmap.source.n, p)
    tdef, theights = height_and_defect(dst_members, lmap.target.n, p)
    if sdef != tdef:
        violations.append(
            {
                "kappa": lmap.source.kappa.to_json(),
                "kappa2": lmap.target.kappa.to_json(),
                "defect": sdef,
                "image_defect": tdef,
            }
        )
    for src, dst in lmap.pairs:
        if sheights[src] != theights[dst]:
            violations.append(
                {
                    "label": src.to_json(),
                    "image": dst.to_json(),
                    "height": sheights[src],
                    "image_height": theights[dst],
                }
            )


@dataclass(frozen=True)
class _Side:
    """What the core-replacement runner needs to know of the spin or the
    non-spin blocks.  The fields are lambdas so that every call looks the
    library function up by its module-global name."""

    cores: Callable  # (p, bound) -> the cores, in sweep order
    replace: Callable  # (k1, k2, w, group, p, allow_reversed) -> LabelMap
    members: Callable  # block -> its member labels
    extra: Callable  # (k2, violation, p) -> extra fields of an equivariance witness


_SPIN = _Side(
    cores=lambda p, bound: bar_cores(p, bound),
    replace=lambda k1, k2, w, group, p, rev: psi(SpinBlockId(k1, w, group, p), k2, rev),
    members=lambda block: spin_block_members(block),
    extra=lambda k2, v, p: {
        "kappa2_sign": k2.sign(),
        "cocore_sign": bar_decompose(BarPartition(v["label"]["partition"]), p).cocore.sign(),
    },
)
_NONSPIN = _Side(
    cores=lambda p, bound: selfconjugate_cores(p, bound),
    replace=lambda k1, k2, w, group, p, rev: nonspin_psi(k1, k2, w, p),
    members=lambda block: nonspin_block_members(block),
    extra=lambda k2, v, p: {},
)


def _replace_cores(p, bound, w_max, side, related, groups, allow_reversed=False):
    """Map every block over k1 to the block over k2, for each pair of distinct
    related cores with matching sigma_p tau, and check that the map is a
    bijection, Galois-equivariant and, unless reversed, height-preserving.
    A group of None marks the non-spin blocks, whose witnesses carry none."""
    fs = standard_generators(p)
    sigma = GaloisElement.sigma(p)
    cores = side.cores(p, bound)
    cases, violations = 0, []
    for k1 in cores:
        for k2 in cores:
            if not related(k1, k2) or _core_tau(k1, sigma) != _core_tau(k2, sigma):
                continue
            for w in range(1, w_max + 1):
                for group in groups:
                    lmap = side.replace(k1, k2, w, group, p, allow_reversed)
                    cases += 1
                    images = sorted((d for _, d in lmap.pairs), key=CharLabel.sort_key)
                    if images != list(side.members(lmap.target)):
                        where = {"kappa": k1.to_json(), "kappa2": k2.to_json(), "w": w}
                        if group is not None:
                            where["group"] = group
                        where["reason"] = "not a bijection onto the target block"
                        violations.append(where)
                        continue
                    report = equivariance_check(lmap, fs)
                    cases += report.cases
                    for v in report.violations:
                        where = {"kappa": k1.to_json(), "kappa2": k2.to_json(), "w": w}
                        violations.append({**v, **where, **side.extra(k2, v, p)})
                    if not allow_reversed:
                        cases += 1
                        _check_map_heights(lmap, p, violations)
    return cases, violations, []


def _suite_crossing_fails(p, bound, w_max):
    cases, violations, _ = _replace_cores(
        p, bound, w_max, _SPIN, _reversed_crossing, (STILDE,), allow_reversed=True
    )
    notes = [f"expected: violations iff p = 3 mod 4 (here p % 4 = {p % 4})"]
    return cases, violations, notes


def _same_sign(k1, k2):
    return k1 != k2 and k1.sign() == k2.sign()


def _crossing(k1, k2):
    return k1.sign() == -1 and k2.sign() == 1


def _reversed_crossing(k1, k2):
    return k1.sign() == 1 and k2.sign() == -1


SUITES = {
    "roundtrips": _sweep(_strict_upto, _roundtrips),
    "lengths": _sweep(_strict_upto, _lengths),
    "signs": _sweep(_strict_upto, _signs),
    "sizes": _sweep(_strict_upto, _sizes),
    "pairing": _sweep(_strict_upto, _pairing),
    "tau_oracle": _suite_tau_oracle,
    "little": _suite_little,
    "phi": _sweep(_strict_upto, _phi, gens=True),
    "valuation": _sweep(_strict_upto, _valuation),
    "blocks": _suite_blocks,
    "census": _suite_census,
    "psi": partial(_replace_cores, side=_SPIN, related=_same_sign, groups=(STILDE, ATILDE)),
    "crossing": partial(_replace_cores, side=_SPIN, related=_crossing, groups=(STILDE,)),
    "crossing_fails": _suite_crossing_fails,
    "tau_nonspin": _sweep(_selfconjugate_upto, _tau_nonspin, gens=True),
    "durfee": _sweep(_selfconjugate_upto, _durfee),
    "psi_nonspin": partial(_replace_cores, side=_NONSPIN, related=operator.ne, groups=(None,)),
}


def verify(suite: str, p: int, bound: int, w_max: int = 3) -> VerificationReport:
    """Run a named exhaustive suite up to the given size bound.

    The arguments are checked here, before any work: p must be an odd
    prime, bound and w_max at least 1, and the tau_oracle bound at most
    ORACLE_MAX_M."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    GaloisElement(p)  # raises "p must be an odd prime, got ..." for any other p
    if w_max < 1:
        raise ValueError(f"w_max must be at least 1, got {w_max}")
    if suite == "tau_oracle" and bound > ORACLE_MAX_M:
        raise ValueError(f"tau_oracle needs bound <= {ORACLE_MAX_M}, got {bound}")
    cases, violations, notes = SUITES[suite](p, bound, w_max)
    return VerificationReport(suite, p, bound, cases, tuple(violations), tuple(notes))
