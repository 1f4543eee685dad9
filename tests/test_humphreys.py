import pytest

from barblocks.characters import ATILDE, STILDE, classify, degree_valuation
from barblocks.galois import GaloisElement, standard_generators, tau_i, tau_partition
from barblocks.humphreys import (
    G,
    GPLUS,
    GBlockId,
    GCharLabel,
    block_members,
    classify_g,
    cocores,
    g_degree_valuation,
    phi,
    phi_inverse,
    tau_g,
)
from barblocks.littlewood import bar_decompose
from barblocks.partitions import BarPartition, enumerate_partitions


def test_classify_g_sign_rules():
    pos, neg = BarPartition([3]), BarPartition([2, 1])
    assert len(classify_g(pos, pos, G)) == 1
    assert len(classify_g(neg, neg, G)) == 1
    assert len(classify_g(neg, pos, G)) == 2
    assert len(classify_g(pos, neg, G)) == 2
    # the classification flips on the index-two subgroup
    assert len(classify_g(pos, pos, GPLUS)) == 2
    assert len(classify_g(neg, pos, GPLUS)) == 1


def test_classify_g_flip_census():
    strict = [lam for n in range(13) for lam in enumerate_partitions(n, "strict")]
    for mu in strict:
        for nu in strict:
            whole_g = len(classify_g(mu, nu, G)) == 1
            whole_gp = len(classify_g(mu, nu, GPLUS)) == 1
            assert whole_g != whole_gp


def test_tau_g_rules():
    s3 = GaloisElement.sigma(3)
    kappa = BarPartition([2])      # sign -1
    cocore = BarPartition([3])     # sign +1, a 3-cocore
    mixed = classify_g(kappa, cocore, G)[0]
    assert tau_g(mixed, s3) == tau_partition(kappa, s3) * tau_partition(cocore, s3)

    neg = BarPartition([2, 1])     # sign -1
    both_neg = classify_g(kappa, neg, GPLUS)[0]
    assert both_neg.variant == "plus"
    assert tau_g(both_neg, s3) == tau_i(s3) * tau_partition(kappa, s3) * tau_partition(neg, s3)
    assert tau_i(s3) == -1  # the extra factor really bites at p = 3

    pos2 = BarPartition([4, 3, 2, 1])
    both_pos = classify_g(BarPartition([1]), pos2, GPLUS)[0]
    assert tau_g(both_pos, s3) == tau_partition(BarPartition([1]), s3) * tau_partition(pos2, s3)

    whole = classify_g(kappa, neg, G)[0]
    assert whole.variant == "whole"
    for f in standard_generators(3):
        assert tau_g(whole, f) == 1
        assert tau_g(mixed, GaloisElement(3, 0, 1)) == 1


def test_cocores_weight_one():
    for p in (3, 5, 7):
        got = set(cocores(1, p))
        expect = {BarPartition([p])} | {
            BarPartition([p - k, k]) for k in range(1, (p - 1) // 2 + 1)
        }
        assert got == expect
        assert len(got) == (p + 1) // 2


def test_cocores_are_cocores():
    for p in (3, 5):
        for w in (1, 2, 3):
            for mu in cocores(w, p):
                dec = bar_decompose(mu, p)
                assert not dec.core
                assert dec.weight == w


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_weight_one_block_census(p):
    plus_core = BarPartition()       # sign +1
    minus_core = BarPartition([2])   # sign -1
    assert len(block_members(GBlockId(plus_core, 1, G, p))) == p
    assert len(block_members(GBlockId(plus_core, 1, GPLUS, p))) == (p + 3) // 2
    assert len(block_members(GBlockId(minus_core, 1, G, p))) == (p + 3) // 2
    assert len(block_members(GBlockId(minus_core, 1, GPLUS, p))) == p


def test_gblock_validation():
    with pytest.raises(ValueError):
        GBlockId(BarPartition([3]), 1, G, 3)  # not a core
    with pytest.raises(ValueError):
        GBlockId(BarPartition(), 0, G, 3)
    with pytest.raises(ValueError):
        GBlockId(BarPartition(), 1, "h", 3)


def test_phi_examples():
    kappa = BarPartition([2])
    label = classify(kappa, STILDE)[0]
    glabel = phi(label, 3)
    assert glabel == GCharLabel(kappa, BarPartition(), G, label.variant)

    pair = classify(BarPartition([4, 3, 2, 1]), ATILDE)
    for label in pair:
        glabel = phi(label, 3)
        assert glabel.group == GPLUS
        assert glabel.variant == label.variant
        assert glabel.mu == BarPartition([1])
        assert glabel.nu == BarPartition([5, 3, 1])
        assert phi_inverse(glabel, 3) == label


def test_phi_round_trip_and_tau_equivariance():
    for p in (3, 5):
        fs = standard_generators(p)
        for n in range(14):
            for lam in enumerate_partitions(n, "strict"):
                for group in (STILDE, ATILDE):
                    for label in classify(lam, group):
                        glabel = phi(label, p)
                        assert glabel.variant == label.variant
                        assert phi_inverse(glabel, p) == label
                        if label.variant == "plus":
                            for f in fs:
                                assert tau_g(glabel, f) == tau_partition(lam, f)


def test_phi_inverse_rejects_non_cocore():
    bad = GCharLabel(BarPartition(), BarPartition([1]), G, "whole")
    with pytest.raises(ValueError):
        phi_inverse(bad, 3)


def test_phi_inverse_refuses_before_it_rebuilds():
    """phi_inverse places nu's quotient on mu's runners unchecked, so it first
    refuses a nu that is not a p-cocore and then a mu that is not a p-bar core."""
    with pytest.raises(ValueError, match=r"^BarPartition\(\[1\]\) is not a 3-cocore$"):
        phi_inverse(GCharLabel(BarPartition([3]), BarPartition([1]), G, "whole"), 3)
    with pytest.raises(ValueError, match=r"^BarPartition\(\[3\]\) is not a 3-core$"):
        phi_inverse(GCharLabel(BarPartition([3]), BarPartition([2, 1]), G, "whole"), 3)
    with pytest.raises(ValueError, match=r"^BarPartition\(\[4, 1\]\) is not a 5-core$"):
        phi_inverse(GCharLabel(BarPartition([4, 1]), BarPartition(), GPLUS, "whole"), 5)


def test_g_degree_valuation():
    kappa = BarPartition([3, 1])  # 5-bar core, no 5-divisible bar hooks
    label = GCharLabel(kappa, BarPartition(), G, "whole")
    assert g_degree_valuation(label, 5) == 0
    lam = BarPartition([6, 4, 3, 2])
    dec = bar_decompose(lam, 3)
    assert dec.core.size == lam.size % 3
    slabel = classify(lam, STILDE)[0]
    glabel = phi(slabel, 3)
    assert g_degree_valuation(glabel, 3) == degree_valuation(slabel, 3)


def test_gcharlabel_json():
    label = GCharLabel(BarPartition([2]), BarPartition([3]), G, "plus")
    assert label.to_json() == {"mu": [2], "nu": [3], "group": "g", "variant": "plus"}
