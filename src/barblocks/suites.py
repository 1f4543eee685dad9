"""The exhaustive verification suites: one table, SUITES, from a name to a row.

A row is a domain (bound, p, w_max) -> elements, a set-up (p, tally) -> check
and optional notes (p, tally) -> lines.  ``verify`` runs the set-up once and
check(x) -> (cases, witnesses) on every x of the domain.  The set-up imports
the library modules its suite checks, so a run loads only those, and does once
the work that every case shares: the automorphisms and the spread over their
sign classes (galois._sign_classes), which evaluates tau once per class and
gives it back for every f, in order.  The oracle is grouped by what it reads
instead, never by the closed forms' classes: ``tau_oracle`` asks it once per
e, and once per (e, s) only where p divides the squarefree part of m, and
compares every f with tau_sqrt.  ``tally`` counts kinds of cases for the
notes of ``little``.  ``lengths`` and ``durfee`` are one check with two
statistics, stat(lambda) = stat(core) + stat(cocore) - 2d (``_minus_2d``).

The domains are the strict and the self-conjugate partitions up to the bound
(``_partitions_upto``, by kind), the cocores among the strict ones, m in
1..bound, the spin blocks over the p-bar cores (``blocks``), the weight-one
G/G+ blocks (``census``) and the pairs of related cores with matching
sigma_p tau (``_core_pairs``, for the core-replacement suites, where the
group None marks the non-spin side: self-conjugate cores and nonspin_psi in
place of bar cores and psi).
``blocks`` and core replacement check every map through ``_check_map``: a
bijection onto the target block that keeps the defect and every height, taken
once per block in a run (``_block_heights``).

Every domain is walked in a fixed order and every witness is a dict whose keys
and key order are part of the report, so reports are byte-stable.  Witnesses
are built only when a check fails.  Library functions are looked up through
their defining module when they are called, so a wrapper that rebinds one,
like a call tracer or a test's monkeypatch, sees every call.
"""

from __future__ import annotations

import operator
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import repeat

from . import galois, partitions
from .galois import ORACLE_MAX_M, GaloisElement, _odd_prime
from .partitions import BarPartition, Partition, _Record

# The spin groups, characters.STILDE and characters.ATILDE, which
# tests/test_cli.py pins equal to these.
_STILDE, _ATILDE = "stilde", "atilde"


class VerificationReport(_Record):
    __slots__ = ("suite", "p", "bound", "cases", "violations", "notes")

    def __init__(self, suite: str, p: int, bound: int, cases: int, violations: tuple[dict, ...],
                 notes: tuple[str, ...] = ()):
        self._set(suite, p, bound, cases, violations, notes)

    @property
    def passed(self) -> bool:
        return not self.violations


def _partitions_upto(bound: int, p: int, w_max: int, kind: str):
    for n in range(bound + 1):
        yield from partitions.enumerate_partitions(n, kind)


_strict_upto = partial(_partitions_upto, kind="strict")
_selfconjugate_upto = partial(_partitions_upto, kind="self_conjugate")


def _cocores_upto(bound: int, p: int, w_max: int):
    from . import humphreys

    for w in range(bound // p + 1):
        yield from humphreys.cocores(w, p)


def _m_upto(bound: int, p: int, w_max: int):
    return range(1, bound + 1)


def _witness(lam, **fields) -> dict:
    """A violation at the partition lam, with its fields in the given order."""
    return {"lambda": lam.to_json(), **fields}


def _roundtrips(p, tally):
    from . import abacus, littlewood

    def check(lam):
        reasons = []
        if lam.frobenius().to_partition() != Partition(lam.parts):
            reasons.append("frobenius round trip")
        ab = abacus.BarAbacus.from_partition(lam, p)
        if ab.to_partition() != lam:
            reasons.append("abacus round trip")
        if ab.twist().untwist() != ab:
            reasons.append("twist round trip")
        dec = littlewood.bar_decompose(lam, p)
        if littlewood.bar_reconstruct(dec.core, dec.quotient, p) != lam:
            reasons.append("decompose round trip")
        return 1, [_witness(lam, reason=reason) for reason in reasons]

    return check


def _minus_2d(p, tally, decompose, name, stat):
    """stat(lam) = stat(core) + stat(cocore) - 2d for littlewood.<decompose>:
    lengths of bar decompositions, Durfee sizes of self-conjugate partitions.
    The witness keys are name, core_name, cocore_name and d."""
    from . import littlewood

    def check(lam):
        dec = getattr(littlewood, decompose)(lam, p)
        value, core, cocore = stat(lam), stat(dec.core), stat(dec.cocore)
        if value == core + cocore - 2 * dec.d:
            return 1, ()
        return 1, [_witness(lam, **{name: value, f"core_{name}": core, f"cocore_{name}": cocore, "d": dec.d})]

    return check


def _signs(p, tally):
    from . import littlewood

    def check(lam):
        dec = littlewood.bar_decompose(lam, p)
        if lam.sign() == dec.core.sign() * dec.cocore.sign():
            return 1, ()
        core, cocore = dec.core.sign(), dec.cocore.sign()
        return 1, [_witness(lam, sign=lam.sign(), core_sign=core, cocore_sign=cocore)]

    return check


def _sizes(p, tally):
    from . import littlewood

    def check(lam):
        dec = littlewood.bar_decompose(lam, p)
        if lam.size == dec.core.size + p * dec.weight:
            return 1, ()
        return 1, [_witness(lam, size=lam.size, core_size=dec.core.size, weight=dec.weight)]

    return check


def _pairing(p, tally):
    from . import littlewood

    def check(lam):
        pairs = littlewood.paired_parts(lam, p)
        found = []
        if sorted(x for pair in pairs for x in pair) != sorted(x for x in lam if x % p):
            found.append(_witness(lam, pairs=[list(q) for q in pairs], reason="cover"))
        found += [_witness(lam, pair=[a, b], reason="sum") for a, b in pairs if (a + b) % p]
        return 1, found

    return check


def _tau_oracle(p, tally):
    elements = [GaloisElement(p, e, s) for e in (0, 1, 2) for s in range(1, p)]
    firsts = elements[:: p - 1]  # s = 1 for each e

    def check(m):
        primes, oracle, tau = galois._odd_primes(m), galois._oracle_sign, galois.tau_sqrt
        if p in primes:  # the oracle reads s, on zeta_p
            exact = [oracle(primes, f) for f in elements]
        else:  # it reads only p**e, the same for every s
            exact = [sign for f in firsts for sign in repeat(oracle(primes, f), p - 1)]
        found = [
            {"m": m, "f": f.to_json(), "closed": closed, "oracle": sign}
            for f, sign in zip(elements, exact)
            if (closed := tau(m, f)) != sign
        ]
        return len(elements), found

    return check


def _little(p, tally):
    from . import littlewood

    sigma = GaloisElement.sigma(p)
    trivial = [f for f in galois.standard_generators(p) if f.e == 0]
    spread = galois._sign_classes(trivial)
    eps = -1 if p % 4 == 3 else 1

    def check(lam):
        tau = galois.tau_partition
        dec = littlewood.bar_decompose(lam, p)
        t_core, t_cocore, t_lam = tau(dec.core, sigma), tau(dec.cocore, sigma), tau(lam, sigma)
        if dec.core.sign() == -1 and dec.cocore.sign() == -1:
            case, ok = "ii", t_lam == eps * t_core * t_cocore
        else:
            case, ok = "i", t_lam == t_core * t_cocore
        tally[case] += 1
        tally["iii"] += len(trivial)
        found = []
        if not ok:
            found.append(_witness(lam, case=case, tau=t_lam, tau_core=t_core, tau_cocore=t_cocore))
        fails = spread(lambda f: tau(lam, f) != tau(dec.core, f) * tau(dec.cocore, f))
        found += [_witness(lam, case="iii", f=f.to_json()) for f, fail in zip(trivial, fails) if fail]
        return 1 + len(trivial), found

    return check


def _little_notes(p, tally):
    return [f"case_i={tally['i']}", f"case_ii={tally['ii']}", f"case_iii={tally['iii']}"]


def _phi(p, tally):
    from . import characters, humphreys

    fs = galois.standard_generators(p)
    spread = galois._sign_classes(fs)

    def check(lam):
        cases, found = 0, []
        for group in (_STILDE, _ATILDE):
            for label in characters.classify(lam, group, characters.SPIN):
                glabel = humphreys.phi(label, p)
                cases += 1
                if glabel.variant != label.variant:
                    found.append({"label": label.to_json(), "reason": "variant"})
                if humphreys.phi_inverse(glabel, p) != label:
                    found.append({"label": label.to_json(), "reason": "inverse"})
                if label.variant == "plus":
                    fails = spread(lambda f: characters.label_tau(label, f) != humphreys.tau_g(glabel, f))
                    cases += len(fs)
                    found += [
                        {"label": label.to_json(), "f": f.to_json(), "reason": "tau"}
                        for f, fail in zip(fs, fails)
                        if fail
                    ]
        return cases, found

    return check


def _valuation(p, tally):
    from . import characters, humphreys, littlewood

    def check(lam):
        dec = littlewood.bar_decompose(lam, p)
        if dec.core.size >= p:
            return 0, ()
        label = characters.classify(lam, _STILDE, characters.SPIN)[0]
        val = characters.spin_degree_valuation(lam, p)
        gval = humphreys.g_degree_valuation(humphreys.phi(label, p), p)
        cocore_val = characters.spin_degree_valuation(dec.cocore, p)
        if val == gval == cocore_val:
            return 1, ()
        return 1, [_witness(lam, valuation=val, image_valuation=gval, cocore_valuation=cocore_val)]

    return check


def _tau_nonspin(p, tally):
    from . import littlewood

    fs = galois.standard_generators(p)
    spread = galois._sign_classes(fs)

    def check(lam):
        tau = galois.tau_selfconjugate
        dec = littlewood.ordinary_decompose(lam, p)
        signs = spread(lambda f: (tau(lam, f), tau(dec.core, f) * tau(dec.cocore, f)))
        found = [
            _witness(lam, f=f.to_json(), tau=lhs, product=rhs)
            for f, (lhs, rhs) in zip(fs, signs)
            if lhs != rhs
        ]
        return len(fs), found

    return check


@lru_cache(maxsize=None)
def _block_heights(block) -> tuple:
    """The defect and heights of a block's members, once per block in a verify run."""
    from . import blocks

    return blocks._heights_of(block, blocks._members_of(block))


def _check_map(lmap, where, heights=True):
    """Check lmap against its target block: a bijection onto the target's
    members and, with heights, equal defects and equal heights label by
    label.  Heights come from hook lengths on both sides.  Returns (defect,
    witnesses): defect is the source block's, or None when the map is not a
    bijection or heights is off.  Every witness opens with where, the block
    context."""
    from . import blocks

    images = sorted((dst for _, dst in lmap.pairs), key=operator.methodcaller("sort_key"))
    if images != list(blocks._members_of(lmap.target)):
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


def _spin_blocks(bound, p, w_max):
    """Every spin block over a p-bar core of size <= bound with 1 <= w <=
    w_max, paired with the defect of the empty-core block of its weight."""
    from . import blocks

    baseline = {}
    for w in range(1, w_max + 1):
        baseline[w], _ = _block_heights(blocks.SpinBlockId(BarPartition(), w, _STILDE, p))
    for kappa in blocks.bar_cores(p, bound):
        for w in range(1, w_max + 1):
            for group in (_STILDE, _ATILDE):
                yield blocks.SpinBlockId(kappa, w, group, p), baseline[w]


def _blocks(p, tally):
    from . import blocks

    def check(x):
        block, baseline = x
        where = {"kappa": block.kappa.to_json(), "w": block.w, "group": block.group}
        defect, found = _check_map(blocks.phi_map(block), where)
        if defect is not None and defect != baseline:
            reason = "defect varies with core"
            found.append({**where, "defect": defect, "empty_core_defect": baseline, "reason": reason})
        return 1, found

    return check


def _weight_one_g_blocks(bound, p, w_max):
    from . import blocks, humphreys

    for kappa in blocks.bar_cores(p, bound):
        for ggroup in (humphreys.G, humphreys.GPLUS):
            yield humphreys.GBlockId(kappa, 1, ggroup, p)


def _census(p, tally):
    """p members when the core's sign is 1 for G or -1 for G+, else (p+3)/2."""
    from . import humphreys

    def check(block):
        got = len(humphreys.block_members(block))
        want = p if (block.kappa.sign() == 1) == (block.group == humphreys.G) else (p + 3) // 2
        if got == want:
            return 1, ()
        return 1, [{"kappa": block.kappa.to_json(), "group": block.group, "count": got, "expected": want}]

    return check


def _core_pairs(bound, p, w_max, related, groups):
    """(k1, k2, w, group) for each pair of related cores with matching
    sigma_p tau, each weight 1..w_max and each group (None: non-spin)."""
    from . import blocks

    sigma = GaloisElement.sigma(p)
    nonspin = groups == (None,)
    cores = blocks.selfconjugate_cores(p, bound) if nonspin else blocks.bar_cores(p, bound)
    tau = galois.tau_selfconjugate if nonspin else galois.tau_partition
    for k1 in cores:
        for k2 in cores:
            if related(k1, k2) and tau(k1, sigma) == tau(k2, sigma):
                for w in range(1, w_max + 1):
                    for group in groups:
                        yield k1, k2, w, group


def _replace_core(p, tally, allow_reversed=False):
    """Check the map from the block over k1 to the block over k2: bijective,
    Galois-equivariant and, unless reversed, height-preserving.  Only its own
    witnesses carry the group (None on the non-spin side), and only spin
    equivariance witnesses the signs of k2 and of the label's cocore."""
    from . import blocks, littlewood

    fs = galois.standard_generators(p)

    def check(x):
        k1, k2, w, group = x
        if group is None:
            lmap = blocks.nonspin_psi(k1, k2, w, p)
        else:
            lmap = blocks.psi(blocks.SpinBlockId(k1, w, group, p), k2, allow_reversed)
        where = {"kappa": k1.to_json(), "kappa2": k2.to_json(), "w": w}
        block = where if group is None else {**where, "group": group}
        defect, found = _check_map(lmap, block, heights=not allow_reversed)
        if defect is None and found:  # not a bijection
            return 1, found
        report = blocks.equivariance_check(lmap, fs)
        witnesses = [{**v, **where} for v in report.violations]
        if group is not None:
            for v in witnesses:
                cocore = littlewood.bar_decompose(BarPartition(v["label"]["partition"]), p).cocore
                v.update(kappa2_sign=k2.sign(), cocore_sign=cocore.sign())
        return 1 + report.cases + (not allow_reversed), witnesses + found

    return check


def _same_sign(k1, k2):
    return k1 != k2 and k1.sign() == k2.sign()


def _crossing(k1, k2):
    return k1.sign() == -1 and k2.sign() == 1


def _reversed_crossing(k1, k2):
    return k1.sign() == 1 and k2.sign() == -1


def _crossing_fails_notes(p, tally):
    return [f"expected: violations iff p = 3 mod 4 (here p % 4 = {p % 4})"]


_Suite = namedtuple("_Suite", "domain setup notes", defaults=(None,))


def _core_replacement(related, groups, allow_reversed=False, notes=None):
    pairs = partial(_core_pairs, related=related, groups=groups)
    return _Suite(pairs, partial(_replace_core, allow_reversed=allow_reversed), notes)


SUITES = {
    "roundtrips": _Suite(_strict_upto, _roundtrips),
    "lengths": _Suite(_strict_upto, partial(_minus_2d, decompose="bar_decompose", name="length",
                                            stat=operator.attrgetter("length"))),
    "signs": _Suite(_strict_upto, _signs),
    "sizes": _Suite(_strict_upto, _sizes),
    "pairing": _Suite(_cocores_upto, _pairing),
    "tau_oracle": _Suite(_m_upto, _tau_oracle),
    "little": _Suite(_strict_upto, _little, _little_notes),
    "phi": _Suite(_strict_upto, _phi),
    "valuation": _Suite(_strict_upto, _valuation),
    "blocks": _Suite(_spin_blocks, _blocks),
    "census": _Suite(_weight_one_g_blocks, _census),
    "psi": _core_replacement(_same_sign, (_STILDE, _ATILDE)),
    "crossing": _core_replacement(_crossing, (_STILDE,)),
    "crossing_fails": _core_replacement(
        _reversed_crossing, (_STILDE,), allow_reversed=True, notes=_crossing_fails_notes
    ),
    "tau_nonspin": _Suite(_selfconjugate_upto, _tau_nonspin),
    "durfee": _Suite(_selfconjugate_upto, partial(_minus_2d, decompose="ordinary_decompose", name="durfee",
                                                  stat=operator.methodcaller("durfee"))),
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
    row, tally = SUITES[suite], Counter()
    check = row.setup(p, tally)
    cases, violations = 0, []
    for x in row.domain(bound, p, w_max):
        n, found = check(x)
        cases += n
        violations.extend(found)
    notes = row.notes(p, tally) if row.notes else ()
    return VerificationReport(suite, p, bound, cases, tuple(violations), tuple(notes))
