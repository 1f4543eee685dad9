"""Spin blocks of the double covers, non-spin blocks of the alternating-group
cover, the core-replacing bijections between them, and the exhaustive
verification suites.

Membership comes from quotients.  The members of the block (kappa, w) are the
reconstructions over kappa of every quotient of total weight w: a strict head
component and (p-1)/2 ordinary ones for a spin block, p ordinary ones for a
non-spin block.  The engine in littlewood.py builds this list once per (kind,
kappa, w, p), and both spin groups share it.  ``_blocks_of`` lists the blocks
of degree n, those over the p-bar cores kappa with p | n - |kappa|.
``_members_of`` gives the members of a block of any kind and ``_heights_of``
its defect and heights, for the ``blocks`` listing and ``_check_map`` alike;
a verify run takes them once per block (``_block_heights``).
bar_cores and selfconjugate_cores build the cores of both kinds by one walk
over their characteristic vectors (littlewood._cores).

The suites form one table, SUITES, from a name to a function
(p, bound, w_max) -> (cases, violations, notes).  ``_sweep`` owns the only loop
over a suite's cases: it pairs a domain (bound, p, w_max) -> elements with a
check of one element that returns (cases, witnesses).  The domains are the
strict partitions up to the bound, the cocores among them, the self-conjugate
ones, m in 1..bound, the spin blocks over the p-bar cores (``blocks``), the
weight-one G/G+ blocks (``census``) and the pairs of related cores with
matching sigma_p tau (``_core_pairs``, for the core-replacement suites, where
the group None marks the non-spin side: self-conjugate cores and nonspin_psi
in place of bar cores and psi).  ``blocks`` and core replacement check every
map through ``_check_map``: a bijection onto the target block that keeps the
defect and every height.

``little``, ``tau_oracle`` and ``crossing_fails`` run ``_sweep`` once and add
only what every element shares or the notes.  Every domain is walked in a
fixed order and every witness is a dict whose keys and key order are part of
the report, so reports are byte-stable.  Witnesses are built only when a check
fails.  A check over automorphisms evaluates tau once per sign class
(galois._sign_classes) and then reports every f of its class, in order.

Library functions are looked up by their module-global names when they are
called, never stored in the table at import time.  A wrapper that rebinds such
a name, like a call tracer or a test's monkeypatch, then sees every call.
"""

from __future__ import annotations

import operator
from functools import lru_cache, partial

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
    _odd_prime,
    _odd_primes,
    _oracle_sign,
    _sign_classes,
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
    cocores,
    g_degree_valuation,
    g_height_and_defect,
    phi,
    phi_inverse,
    tau_g,
)
from .littlewood import (
    _BAR,
    _ORDINARY,
    _cores,
    _members,
    _rebuilt,
    bar_decompose,
    bar_reconstruct,
    ordinary_decompose,
    paired_parts,
)
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
    """(defect, heights) of block, for its labels in members, from hook lengths."""
    if isinstance(block, GBlockId):
        return g_height_and_defect(members, block.p)
    return height_and_defect(members, block.n, block.p)


@lru_cache(maxsize=None)
def _block_heights(block) -> tuple:
    """_heights_of a block's members, once per block in a verify run."""
    return _heights_of(block, _members_of(block))


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


# ---------------------------------------------------------------------------
# verification


class VerificationReport(_Record):
    __slots__ = ("suite", "p", "bound", "cases", "violations", "notes")

    def __init__(self, suite: str, p: int, bound: int, cases: int, violations: tuple[dict, ...],
                 notes: tuple[str, ...] = ()):
        self._set(suite, p, bound, cases, violations, notes)

    @property
    def passed(self) -> bool:
        return not self.violations


def _tau_of(label, f: GaloisElement) -> int:
    if isinstance(label, GCharLabel):
        return tau_g(label, f)
    return label_tau(label, f)


def equivariance_check(lmap: LabelMap, fs) -> VerificationReport:
    """Compare the permutation sign of every automorphism on each associate
    pair with the sign on its image; self-associate labels must map to
    self-associate labels.  The automorphisms must share one prime, the
    source block's p when the map has a source."""
    fs = tuple(fs)
    if not fs:
        raise ValueError("need at least one automorphism")
    p = fs[0].p
    if any(f.p != p for f in fs):
        raise ValueError(f"automorphisms of different primes: {sorted({f.p for f in fs})}")
    if getattr(lmap.source, "p", p) != p:
        raise ValueError(f"automorphisms of p={p} on a block of p={lmap.source.p}")
    reps, classes = _sign_classes(fs)
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
        signs = [(_tau_of(src, f), _tau_of(dst, f)) for f in reps]
        for f, k in zip(fs, classes):
            ts, td = signs[k]
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
        tau = tau_selfconjugate if isinstance(lmap.source, NonSpinBlockId) else tau_partition
        t1, t2 = tau(src_core, sigma), tau(dst_core, sigma)
        notes.append(f"core tau under sigma_p: source {t1}, target {t2}, matching={t1 == t2}")
    return VerificationReport("equivariance", p, 0, cases, tuple(violations), tuple(notes))


def _strict_upto(bound: int, p: int, w_max: int):
    for n in range(bound + 1):
        yield from strict_partitions_of(n)


def _cocores_upto(bound: int, p: int, w_max: int):
    for w in range(bound // p + 1):
        yield from cocores(w, p)


def _selfconjugate_upto(bound: int, p: int, w_max: int):
    for n in range(bound + 1):
        yield from enumerate_partitions(n, "self_conjugate")


def _m_upto(bound: int, p: int, w_max: int):
    return range(1, bound + 1)


def _sweep(domain, check):
    """The suite (p, bound, w_max) that runs check(x, p) -> (cases,
    witnesses) on every x of domain(bound, p, w_max)."""

    def run(p, bound, w_max):
        cases, violations = 0, []
        for x in domain(bound, p, w_max):
            n, found = check(x, p)
            cases += n
            violations.extend(found)
        return cases, violations, []

    return run


def _witness(lam, **fields) -> dict:
    """A violation at the partition lam, with its fields in the given order."""
    return {"lambda": lam.to_json(), **fields}


def _roundtrips(lam, p):
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


def _lengths(lam, p):
    dec = bar_decompose(lam, p)
    if lam.length == dec.core.length + dec.cocore.length - 2 * dec.d:
        return 1, ()
    core, cocore = dec.core.length, dec.cocore.length
    return 1, [_witness(lam, length=lam.length, core_length=core, cocore_length=cocore, d=dec.d)]


def _signs(lam, p):
    dec = bar_decompose(lam, p)
    if lam.sign() == dec.core.sign() * dec.cocore.sign():
        return 1, ()
    core, cocore = dec.core.sign(), dec.cocore.sign()
    return 1, [_witness(lam, sign=lam.sign(), core_sign=core, cocore_sign=cocore)]


def _sizes(lam, p):
    dec = bar_decompose(lam, p)
    if lam.size == dec.core.size + p * dec.weight:
        return 1, ()
    return 1, [_witness(lam, size=lam.size, core_size=dec.core.size, weight=dec.weight)]


def _durfee(lam, p):
    dec = ordinary_decompose(lam, p)
    if lam.durfee() == dec.core.durfee() + dec.cocore.durfee() - 2 * dec.d:
        return 1, ()
    core, cocore = dec.core.durfee(), dec.cocore.durfee()
    return 1, [_witness(lam, durfee=lam.durfee(), core_durfee=core, cocore_durfee=cocore, d=dec.d)]


def _pairing(lam, p):
    pairs = paired_parts(lam, p)
    found = []
    if sorted(x for pair in pairs for x in pair) != sorted(x for x in lam if x % p):
        found.append(_witness(lam, pairs=[list(q) for q in pairs], reason="cover"))
    found += [_witness(lam, pair=[a, b], reason="sum") for a, b in pairs if (a + b) % p]
    return 1, found


def _suite_tau_oracle(p, bound, w_max):
    elements = [GaloisElement(p, e, s) for e in (0, 1, 2) for s in range(1, p)]

    def check(m, p):
        primes, found = _odd_primes(m), []
        for f in elements:
            closed, exact = tau_sqrt(m, f), _oracle_sign(primes, f)
            if closed != exact:
                found.append({"m": m, "f": f.to_json(), "closed": closed, "oracle": exact})
        return len(elements), found

    return _sweep(_m_upto, check)(p, bound, w_max)


def _suite_little(p, bound, w_max):
    sigma = GaloisElement.sigma(p)
    trivial = [f for f in standard_generators(p) if f.e == 0]
    reps, classes = _sign_classes(trivial)
    eps = -1 if p % 4 == 3 else 1
    counts = {"i": 0, "ii": 0, "iii": 0}

    def check(lam, p):
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
        fails = [
            tau_partition(lam, f) != tau_partition(dec.core, f) * tau_partition(dec.cocore, f)
            for f in reps
        ]
        for f, k in zip(trivial, classes):
            if fails[k]:
                found.append(_witness(lam, case="iii", f=f.to_json()))
        return 1 + len(trivial), found

    cases, violations, _ = _sweep(_strict_upto, check)(p, bound, w_max)
    notes = [f"case_i={counts['i']}", f"case_ii={counts['ii']}", f"case_iii={counts['iii']}"]
    return cases, violations, notes


def _phi(lam, p):
    fs = standard_generators(p)
    reps, classes = _sign_classes(fs)
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
                fails = [label_tau(label, f) != tau_g(glabel, f) for f in reps]
                cases += len(fs)
                found += [
                    {"label": label.to_json(), "f": f.to_json(), "reason": "tau"}
                    for f, k in zip(fs, classes)
                    if fails[k]
                ]
    return cases, found


def _valuation(lam, p):
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


def _tau_nonspin(lam, p):
    dec = ordinary_decompose(lam, p)
    fs = standard_generators(p)
    reps, classes = _sign_classes(fs)
    lhs = [tau_selfconjugate(lam, f) for f in reps]
    rhs = [tau_selfconjugate(dec.core, f) * tau_selfconjugate(dec.cocore, f) for f in reps]
    found = [
        _witness(lam, f=f.to_json(), tau=lhs[k], product=rhs[k])
        for f, k in zip(fs, classes)
        if lhs[k] != rhs[k]
    ]
    return len(fs), found


def _spin_blocks(bound, p, w_max):
    """Every spin block over a p-bar core of size <= bound with 1 <= w <=
    w_max, paired with the defect of the empty-core block of its weight."""
    baseline = {}
    for w in range(1, w_max + 1):
        empty = SpinBlockId(BarPartition(), w, STILDE, p)
        baseline[w], _ = _block_heights(empty)
    for kappa in bar_cores(p, bound):
        for w in range(1, w_max + 1):
            for group in (STILDE, ATILDE):
                yield SpinBlockId(kappa, w, group, p), baseline[w]


def _blocks(x, p):
    block, baseline = x
    where = {"kappa": block.kappa.to_json(), "w": block.w, "group": block.group}
    defect, found = _check_map(phi_map(block), where)
    if defect is not None and defect != baseline:
        reason = "defect varies with core"
        found.append({**where, "defect": defect, "empty_core_defect": baseline, "reason": reason})
    return 1, found


def _weight_one_g_blocks(bound, p, w_max):
    for kappa in bar_cores(p, bound):
        for ggroup in (G, GPLUS):
            yield GBlockId(kappa, 1, ggroup, p)


def _census(block, p):
    """p members when the core's sign is 1 for G or -1 for G+, else (p+3)/2."""
    got = len(block_members(block))
    want = p if (block.kappa.sign() == 1) == (block.group == G) else (p + 3) // 2
    if got == want:
        return 1, ()
    return 1, [{"kappa": block.kappa.to_json(), "group": block.group, "count": got, "expected": want}]


def _check_map(lmap, where, heights=True):
    """Check lmap against its target block: a bijection onto the target's
    members and, with heights, equal defects and equal heights label by
    label.  Heights come from hook lengths on both sides.  Returns (defect,
    witnesses): defect is the source block's, or None when the map is not a
    bijection or heights is off.  Every witness opens with where, the block
    context."""
    images = sorted((dst for _, dst in lmap.pairs), key=operator.methodcaller("sort_key"))
    members = _members_of(lmap.target)
    if images != list(members):
        return None, [{**where, "reason": "not a bijection onto the target block"}]
    if not heights:
        return None, []
    defect, hs = _block_heights(lmap.source)
    image_defect, ht = _block_heights(lmap.target)
    found = []
    if defect != image_defect:
        found.append({**where, "defect": defect, "image_defect": image_defect})
    found += [
        {**where, "label": s.to_json(), "image": d.to_json(), "height": hs[s], "image_height": ht[d]}
        for s, d in lmap.pairs
        if hs[s] != ht[d]
    ]
    return defect, found


def _core_pairs(bound, p, w_max, related, groups):
    """(k1, k2, w, group) for each pair of related cores with matching
    sigma_p tau, each weight 1..w_max and each group (None: non-spin)."""
    sigma = GaloisElement.sigma(p)
    nonspin = groups == (None,)
    cores = selfconjugate_cores(p, bound) if nonspin else bar_cores(p, bound)
    tau = tau_selfconjugate if nonspin else tau_partition
    for k1 in cores:
        for k2 in cores:
            if related(k1, k2) and tau(k1, sigma) == tau(k2, sigma):
                for w in range(1, w_max + 1):
                    for group in groups:
                        yield k1, k2, w, group


def _replace_core(x, p, allow_reversed):
    """Check the map from the block over k1 to the block over k2: bijective,
    Galois-equivariant and, unless reversed, height-preserving.  Only its own
    witnesses carry the group (None on the non-spin side), and only spin
    equivariance witnesses the signs of k2 and of the label's cocore."""
    k1, k2, w, group = x
    if group is None:
        lmap = nonspin_psi(k1, k2, w, p)
    else:
        lmap = psi(SpinBlockId(k1, w, group, p), k2, allow_reversed)
    where = {"kappa": k1.to_json(), "kappa2": k2.to_json(), "w": w}
    block = where if group is None else {**where, "group": group}
    defect, found = _check_map(lmap, block, heights=not allow_reversed)
    if defect is None and found:  # not a bijection
        return 1, found
    report = equivariance_check(lmap, standard_generators(p))
    witnesses = [{**v, **where} for v in report.violations]
    if group is not None:
        for v in witnesses:
            cocore = bar_decompose(BarPartition(v["label"]["partition"]), p).cocore
            v.update(kappa2_sign=k2.sign(), cocore_sign=cocore.sign())
    return 1 + report.cases + (not allow_reversed), witnesses + found


def _core_replacement(related, groups, allow_reversed=False):
    pairs = partial(_core_pairs, related=related, groups=groups)
    return _sweep(pairs, partial(_replace_core, allow_reversed=allow_reversed))


def _suite_crossing_fails(p, bound, w_max):
    suite = _core_replacement(_reversed_crossing, (STILDE,), allow_reversed=True)
    cases, violations, _ = suite(p, bound, w_max)
    return cases, violations, [f"expected: violations iff p = 3 mod 4 (here p % 4 = {p % 4})"]


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
    "pairing": _sweep(_cocores_upto, _pairing),
    "tau_oracle": _suite_tau_oracle,
    "little": _suite_little,
    "phi": _sweep(_strict_upto, _phi),
    "valuation": _sweep(_strict_upto, _valuation),
    "blocks": _sweep(_spin_blocks, _blocks),
    "census": _sweep(_weight_one_g_blocks, _census),
    "psi": _core_replacement(_same_sign, (STILDE, ATILDE)),
    "crossing": _core_replacement(_crossing, (STILDE,)),
    "crossing_fails": _suite_crossing_fails,
    "tau_nonspin": _sweep(_selfconjugate_upto, _tau_nonspin),
    "durfee": _sweep(_selfconjugate_upto, _durfee),
    "psi_nonspin": _core_replacement(operator.ne, (None,)),
}


def verify(suite: str, p: int, bound: int, w_max: int = 3) -> VerificationReport:
    """Run a named exhaustive suite up to the given size bound.

    The arguments are checked here, before any work: p must be an odd
    prime, bound and w_max integers of at least 1, and the tau_oracle bound
    at most ORACLE_MAX_M."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    bound, w_max = operator.index(bound), operator.index(w_max)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    p = _odd_prime(p)
    if w_max < 1:
        raise ValueError(f"w_max must be at least 1, got {w_max}")
    if suite == "tau_oracle" and bound > ORACLE_MAX_M:
        raise ValueError(f"tau_oracle needs bound <= {ORACLE_MAX_M}, got {bound}")
    _block_heights.cache_clear()  # the heights memo holds the blocks of one run
    cases, violations, notes = SUITES[suite](p, bound, w_max)
    return VerificationReport(suite, p, bound, cases, tuple(violations), tuple(notes))
