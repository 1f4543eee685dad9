import os
import subprocess
import sys
from fractions import Fraction
from math import factorial, prod
from pathlib import Path

import pytest

from barblocks.characters import (
    ATILDE,
    NONSPIN,
    SPIN,
    STILDE,
    CharLabel,
    _valuation,
    bar_hook_lengths,
    classify,
    degree_valuation,
    height_and_defect,
    label_tau,
    nonspin_degree_valuation,
    nu_p,
    nu_p_factorial,
    spin_degree_valuation,
)
from barblocks.galois import GaloisElement, tau_partition, tau_selfconjugate
from barblocks.humphreys import g_height_and_defect
from barblocks.littlewood import (
    _BAR,
    _ORDINARY,
    _members,
    bar_decompose,
    ordinary_decompose,
)
from barblocks.partitions import BarPartition, Partition, enumerate_partitions
from oracles import bar_multipartition_count, count_odd_part_partitions, hook_lengths, multipartition_count


def test_classify_spin_rules():
    for p in (3, 5, 7):
        assert len(classify(BarPartition([p]), STILDE)) == 1
        assert len(classify(BarPartition([p - 1, 1]), STILDE)) == 2
    # sign -1 means a single self-associate label on the alternating side
    labels = classify(BarPartition([6]), ATILDE)
    assert len(labels) == 1 and labels[0].variant == "whole"
    plus, minus = classify(BarPartition([2, 1]), STILDE)
    assert (plus.variant, minus.variant) == ("plus", "minus")


def test_classify_nonspin_rules():
    assert len(classify(Partition([2, 1]), ATILDE, NONSPIN)) == 2
    assert len(classify(Partition([3, 1]), ATILDE, NONSPIN)) == 1
    assert len(classify(Partition([2, 1]), STILDE, NONSPIN)) == 1


def test_classify_rejects_nonstrict_spin():
    with pytest.raises(ValueError):
        classify(Partition([2, 2]), STILDE, SPIN)


def test_classify_counts_match_sign_census():
    for n in range(1, 21):
        strict = list(enumerate_partitions(n, "strict"))
        plus = sum(1 for lam in strict if lam.sign() == 1)
        minus = len(strict) - plus
        s_whole = sum(1 for lam in strict if len(classify(lam, STILDE)) == 1)
        a_whole = sum(1 for lam in strict if len(classify(lam, ATILDE)) == 1)
        assert s_whole == plus
        assert a_whole == minus


def test_bar_hook_lengths():
    assert bar_hook_lengths(BarPartition([3, 2, 1])) == (5, 4, 3, 3, 2, 1)
    assert bar_hook_lengths(BarPartition([6])) == (6, 5, 4, 3, 2, 1)
    assert sum(1 for h in bar_hook_lengths(BarPartition([5])) if h % 5 == 0) == 1


def test_bar_hook_count_is_size():
    for n in range(41):
        for lam in enumerate_partitions(n, "strict"):
            assert len(bar_hook_lengths(lam)) == n


def test_p_divisible_bar_hooks_depend_only_on_quotient():
    for p in (3, 5):
        for n in range(31):
            for lam in enumerate_partitions(n, "strict"):
                cocore = bar_decompose(lam, p).cocore
                mine = sorted(h for h in bar_hook_lengths(lam) if h % p == 0)
                theirs = sorted(h for h in bar_hook_lengths(cocore) if h % p == 0)
                assert mine == theirs


def test_valuation_helpers():
    assert nu_p(45, 3) == 2
    assert nu_p_factorial(6, 3) == 2
    assert nu_p_factorial(0, 3) == 0
    with pytest.raises(ValueError):
        nu_p(0, 3)


# entry -> (the call at p, its answer at p = 3)
VALUATION_ENTRIES = {
    "spin_degree_valuation": ("spin_degree_valuation(BarPartition([4, 1]), p)", "1"),
    "nonspin_degree_valuation": ("nonspin_degree_valuation(Partition([3, 1]), p)", "1"),
    "degree_valuation": ("degree_valuation(classify(BarPartition([4, 1]), STILDE)[0], p)", "1"),
    "g_degree_valuation": ("g_degree_valuation(classify_g([4, 1], [1], G)[0], p)", "1"),
    "height_and_defect": ("height_and_defect(classify(BarPartition([6]), STILDE), 6, p)[0]", "2"),
    "g_height_and_defect": ("g_height_and_defect(classify_g([1], [6], G), p)[0]", "2"),
}


@pytest.mark.parametrize("call, answer", VALUATION_ENTRIES.values(), ids=list(VALUATION_ENTRIES))
def test_valuations_and_heights_refuse_a_p_that_is_not_an_odd_prime(call, answer):
    """p = 2 and p = 9 would give numbers that are no valuation of the
    paper's, and at p = 1 or -1 the valuation loops would never end; each is
    refused with the rule in under 1 s, and p = 3 answers.  The calls run in a
    subprocess with a timeout, so a hang fails this test instead of stalling
    the run."""
    code = f"""
import time
from barblocks.characters import (
    STILDE, classify, degree_valuation, height_and_defect, nonspin_degree_valuation,
    spin_degree_valuation,
)
from barblocks.humphreys import G, classify_g, g_degree_valuation, g_height_and_defect
from barblocks.partitions import BarPartition, Partition
for p in (2, 9, 1, 0, -1, -3):
    start = time.perf_counter()
    try:
        {call}
    except ValueError as exc:
        assert str(exc) == f"p must be an odd prime, got {{p}}", exc
    else:
        raise SystemExit(f"p={{p}} accepted")
    assert time.perf_counter() - start < 1, p
p = 3
print({call})
"""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30)
    assert (done.returncode, done.stderr, done.stdout) == (0, "", answer + "\n")


def test_degree_valuation_examples():
    label = classify(BarPartition([3]), STILDE)[0]
    assert degree_valuation(label, 3) == 0
    label = classify(BarPartition([3, 2, 1]), STILDE)[0]
    assert degree_valuation(label, 3) == 0


def test_valuation_equal_for_pair_members():
    for lam in enumerate_partitions(9, "strict"):
        labels = classify(lam, STILDE)
        vals = {degree_valuation(l, 3) for l in labels}
        assert len(vals) == 1


def test_height_and_defect_weight_two_block():
    members = []
    for lam in enumerate_partitions(6, "strict"):
        members.extend(classify(lam, STILDE))
    defect, heights = height_and_defect(members, 6, 3)
    assert defect == 2
    assert set(heights.values()) == {0}


def test_height_and_defect_defect_zero():
    kappa = BarPartition([3, 1])  # a 5-bar core
    label = classify(kappa, STILDE)[0]
    defect, heights = height_and_defect([label], 4, 5)
    assert defect == 0
    assert heights[label] == 0


def test_height_and_defect_rejects_empty():
    with pytest.raises(ValueError):
        height_and_defect([], 4, 3)


def _nu_rational(x: Fraction, p: int) -> int:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _schur_spin_degree(parts) -> Fraction:
    """Schur's spin degree n!/prod(a!) * prod_{i<j} (a_i-a_j)/(a_i+a_j), up
    to a power of 2 (J. reine angew. Math. 139, 1911)."""
    degree = Fraction(factorial(sum(parts)), prod(factorial(a) for a in parts))
    for i, a in enumerate(parts):
        for b in parts[i + 1 :]:
            degree *= Fraction(a - b, a + b)
    return degree


def _frobenius_degree(parts) -> Fraction:
    """Frobenius: n! prod_{i<j} (l_i - l_j) / prod l_i!, l_i = lambda_i + len - i."""
    ls = [a + len(parts) - 1 - i for i, a in enumerate(parts)]
    spread = prod(a - b for i, a in enumerate(ls) for b in ls[i + 1 :])
    return Fraction(factorial(sum(parts)) * spread, prod(factorial(x) for x in ls))


def test_valuations_match_the_product_formulas():
    """Hook-length valuations against nu_p of the Schur and Frobenius
    product formulas, which never list a hook."""
    cases = 0
    for p in (3, 5, 7):
        for n in range(26):
            for lam in enumerate_partitions(n, "strict"):
                want = _nu_rational(_schur_spin_degree(lam.parts), p)
                assert spin_degree_valuation(lam, p) == want, (lam, p)
                cases += 1
        for n in range(16):
            for lam in enumerate_partitions(n, "all"):
                want = _nu_rational(_frobenius_degree(lam.parts), p)
                assert nonspin_degree_valuation(lam, p) == want, (lam, p)
                cases += 1
    assert cases == 4764


def _digits(n: int, p: int) -> list[int]:
    """Base-p digits of n, least significant first."""
    out = []
    while n:
        n, a = divmod(n, p)
        out.append(a)
    return out


def test_macdonald_count_of_p_prime_degrees():
    """Macdonald (Bull. London Math. Soc. 3, 1971): with n = sum a_i p**i in
    base p, the partitions of n whose degree p does not divide number
    prod_i k(p**i, a_i)."""
    mismatches = []
    for p in (3, 5, 7):
        for n in range(26):
            want = prod(multipartition_count(p**i, a) for i, a in enumerate(_digits(n, p)))
            got = sum(1 for lam in enumerate_partitions(n) if nonspin_degree_valuation(lam, p) == 0)
            if got != want:
                mismatches.append((p, n, got, want))
    assert mismatches == []


def test_spin_count_of_p_prime_degrees():
    """The spin analogue of Macdonald's count: the strict partitions of n =
    sum a_i p**i whose spin degree p does not divide number
    q(a_0) prod_{i>=1} kbar(p**i, a_i), q(a_0) counting the strict (by Euler,
    the odd-part) partitions of a_0.  This is an identity verified at these
    bounds, not a cited theorem."""
    mismatches = []
    for p in (3, 5, 7, 11, 13):
        for n in range(46):
            a = _digits(n, p) or [0]
            want = count_odd_part_partitions(a[0]) * prod(
                bar_multipartition_count(p**i, a_i) for i, a_i in enumerate(a) if i
            )
            strict = enumerate_partitions(n, "strict")
            got = sum(1 for lam in strict if spin_degree_valuation(lam, p) == 0)
            if got != want:
                mismatches.append((p, n, got, want))
    assert mismatches == []


def test_height_zero_count_of_each_block():
    """Olsson (Math. Scand. 38, 1976): with w = sum w_i p**i in base p, the
    block (kappa, w) of the symmetric group has prod_i k(p**(i+1), w_i)
    members of height zero.  The spin analogue, prod_i kbar(p**(i+1), w_i)
    strict partitions of least spin-degree valuation in a spin block, is an
    identity verified at these bounds, not a cited theorem.  Members are
    counted as partitions; they come from the quotients (littlewood._members)
    and their valuations from hook lengths, so the routes share nothing but
    the decomposition that names the cores."""
    kinds = (
        (_ORDINARY, "all", ordinary_decompose, nonspin_degree_valuation, multipartition_count),
        (_BAR, "strict", bar_decompose, spin_degree_valuation, bar_multipartition_count),
    )
    mismatches, blocks = [], 0
    for p in (3, 5, 7):
        for layout, kind, decompose, valuation, count in kinds:
            cores = [
                k for n in range(9) for k in enumerate_partitions(n, kind) if not decompose(k, p).weight
            ]
            for kappa in cores:
                for w in range((8 if p == 3 else 4) + 1):
                    vals = [valuation(lam, p) for lam in _members(layout, kappa.parts, p, w)]
                    want = prod(count(p ** (i + 1), w_i) for i, w_i in enumerate(_digits(w, p)))
                    blocks += 1
                    if vals.count(min(vals)) != want:
                        mismatches.append((p, kappa, w, vals.count(min(vals)), want))
    assert (blocks, mismatches) == (695, [])


def test_g_height_and_defect_rejects_empty():
    with pytest.raises(ValueError, match="need at least one label"):
        g_height_and_defect([], 3)


def test_label_tau_dispatch():
    s3 = GaloisElement.sigma(3)
    plus = classify(BarPartition([2, 1]), STILDE)[0]
    assert label_tau(plus, s3) == tau_partition(BarPartition([2, 1]), s3)
    whole = classify(BarPartition([3]), STILDE)[0]
    assert label_tau(whole, s3) == 1
    sc_plus = classify(Partition([2, 1]), ATILDE, NONSPIN)[0]
    assert label_tau(sc_plus, s3) == tau_selfconjugate(Partition([2, 1]), s3)


def test_char_label_validation_and_json():
    with pytest.raises(ValueError):
        CharLabel(Partition([2, 2]), STILDE, SPIN, "whole")
    with pytest.raises(ValueError):
        CharLabel(BarPartition([2, 1]), "sym", SPIN, "whole")
    label = classify(BarPartition([2, 1]), STILDE)[0]
    assert label.to_json() == {
        "partition": [2, 1],
        "group": "stilde",
        "flavor": "spin",
        "variant": "plus",
    }


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_valuation_equals_the_one_from_the_full_hook_lists(p):
    """_valuation visits only the hooks p divides; the public bar hook list
    and the reference hook list give every hook, on all strict |lambda| <= 30
    and all |lambda| <= 20."""

    def from_hooks(lam, hooks):
        return nu_p_factorial(lam.size, p) - sum(nu_p(h, p) for h in hooks if h % p == 0)

    for n in range(31):
        for lam in enumerate_partitions(n, "strict"):
            assert _valuation.__wrapped__(lam.parts, p, True) == from_hooks(lam, bar_hook_lengths(lam))
    for n in range(21):
        for lam in enumerate_partitions(n):
            assert _valuation.__wrapped__(lam.parts, p, False) == from_hooks(lam, hook_lengths(lam))
