from fractions import Fraction
from math import factorial, prod

import pytest

from barblocks.characters import (
    ATILDE,
    NONSPIN,
    SPIN,
    STILDE,
    CharLabel,
    ClassLabel,
    bar_hook_lengths,
    classify,
    degree_valuation,
    height_and_defect,
    is_split,
    label_tau,
    nonspin_degree_valuation,
    nu_p,
    nu_p_factorial,
    spin_degree_valuation,
)
from barblocks.galois import GaloisElement, tau_partition, tau_selfconjugate
from barblocks.humphreys import g_height_and_defect
from barblocks.littlewood import bar_cocore
from barblocks.partitions import BarPartition, Partition, enumerate_partitions


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


def test_is_split():
    assert is_split(ClassLabel(Partition([5, 3, 1]), STILDE))
    assert is_split(ClassLabel(Partition([5, 3, 1]), ATILDE))
    assert is_split(ClassLabel(Partition([1, 1, 1]), STILDE))
    assert is_split(ClassLabel(Partition([2, 1]), STILDE))
    assert not is_split(ClassLabel(Partition([2, 1]), ATILDE))
    assert not is_split(ClassLabel(Partition([2, 2]), STILDE))


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
                cocore = bar_cocore(lam, p)
                mine = sorted(h for h in bar_hook_lengths(lam) if h % p == 0)
                theirs = sorted(h for h in bar_hook_lengths(cocore) if h % p == 0)
                assert mine == theirs


def test_valuation_helpers():
    assert nu_p(45, 3) == 2
    assert nu_p_factorial(6, 3) == 2
    assert nu_p_factorial(0, 3) == 0
    with pytest.raises(ValueError):
        nu_p(0, 3)


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
