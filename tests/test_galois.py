from time import perf_counter

import pytest

from barblocks import galois
from barblocks.galois import (
    GaloisElement,
    SurdValue,
    diff_value,
    jacobi,
    oracle_tau_sqrt,
    oracle_tau_surd,
    selfconjugate_diff_value,
    squarefree_of_product,
    squarefree_part,
    standard_generators,
    tau_i,
    tau_partition,
    tau_selfconjugate,
    tau_sqrt,
    tau_sqrt2,
    tau_surd,
)
from barblocks.littlewood import bar_decompose, ordinary_decompose
from barblocks.partitions import BarPartition, Partition, enumerate_partitions


def legendre_by_squares(a, p):
    a %= p
    if a == 0:
        return 0
    return 1 if any(x * x % p == a for x in range(1, p)) else -1


def test_jacobi_against_square_enumeration():
    for p in (3, 5, 7, 11, 13, 17):
        for a in range(-20, 60):
            assert jacobi(a, p) == legendre_by_squares(a, p)


def test_jacobi_basics():
    assert jacobi(2, 5) == -1
    for a in range(-6, 7):
        assert jacobi(a, 1) == 1
    for p in (3, 5, 7, 11, 13):
        assert jacobi(-1, p) == (-1) ** ((p - 1) // 2)
    assert jacobi(6, 9) == 0


def test_jacobi_rejects_even_modulus():
    with pytest.raises(ValueError):
        jacobi(3, 4)
    with pytest.raises(ValueError):
        jacobi(3, -5)


def test_galois_element_validation():
    f = GaloisElement(5, 1, 7)
    assert f.s == 2
    with pytest.raises(ValueError):
        GaloisElement(9)
    with pytest.raises(ValueError):
        GaloisElement(5, 1, 5)
    with pytest.raises(ValueError):
        GaloisElement(5, -1, 1)


def test_galois_element_compose_and_json():
    f = GaloisElement(5, 1, 2)
    g = GaloisElement(5, 2, 3)
    assert f.compose(g) == GaloisElement(5, 3, 1)
    assert GaloisElement.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        f.compose(GaloisElement(3))


def test_tau_i_and_sqrt2():
    s3, s5 = GaloisElement.sigma(3), GaloisElement.sigma(5)
    assert tau_i(s3) == -1 and tau_sqrt2(s3) == -1
    assert tau_i(s5) == 1 and tau_sqrt2(s5) == -1
    for p in (3, 5, 7):
        for s in range(1, p):
            f = GaloisElement.p_trivial(p, s)
            assert tau_i(f) == 1 and tau_sqrt2(f) == 1


def test_tau_sqrt_matches_jacobi_for_coprime():
    for p in (3, 5, 7, 11):
        sigma = GaloisElement.sigma(p)
        for m in range(1, 80):
            if m % p:
                assert tau_sqrt(m, sigma) == jacobi(m, p)


def test_tau_sqrt_examples():
    assert tau_sqrt(3, GaloisElement.sigma(3)) == -1
    assert tau_sqrt(40, GaloisElement.sigma(5)) == -1
    for m in (1, 4, 9, 36, 144):
        for f in (GaloisElement.sigma(3), GaloisElement(5, 2, 3)):
            assert tau_sqrt(m, f) == 1


def test_tau_sqrt_multiplicative():
    for p in (3, 5):
        for e in (0, 1, 2):
            for s in (1, 2):
                f = GaloisElement(p, e, s)
                singles = {m: tau_sqrt(m, f) for m in range(1, 101)}
                for m1 in range(1, 101):
                    for m2 in range(m1, 101):
                        assert tau_sqrt(m1 * m2, f) == singles[m1] * singles[m2]


def test_squarefree_helpers():
    assert squarefree_part(40) == 10
    assert squarefree_part(36) == 1
    assert squarefree_of_product([4, 3, 2, 1]) == 6
    with pytest.raises(ValueError):
        squarefree_part(0)


def test_oracle_examples():
    assert oracle_tau_sqrt(2, GaloisElement.sigma(5)) == -1
    for m in (1, 4, 9, 25, 49):
        assert oracle_tau_sqrt(m, GaloisElement.sigma(3)) == 1
    with pytest.raises(ValueError):
        oracle_tau_sqrt(10, GaloisElement.sigma(3), bound=5)


def test_oracle_agreement_sample():
    # the full sweep is an acceptance criterion; keep a fast slice here
    for p in (3, 5, 7):
        for m in range(1, 60):
            for e in (0, 1, 2):
                for s in (1, p - 1):
                    f = GaloisElement(p, e, s)
                    assert tau_sqrt(m, f) == oracle_tau_sqrt(m, f), (m, p, e, s)


def test_oracle_is_independent_of_closed_forms_and_call_order(monkeypatch):
    """The oracle agrees with the closed forms, and gives the same signs again
    with every galois memo cleared, the closed forms unavailable and the
    questions asked in reverse order."""
    questions = [
        (m, GaloisElement(p, e, s))
        for p in (3, 5, 7, 11, 13)
        for e in (0, 1, 2)
        for s in range(1, p)
        for m in range(1, 201)
    ]
    forward = [oracle_tau_sqrt(m, f) for m, f in questions]
    assert forward == [tau_sqrt(m, f) for m, f in questions]

    for obj in vars(galois).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()

    def closed_form(*_args):
        raise AssertionError("the oracle must not use the closed forms")

    for name in ("jacobi", "tau_sqrt", "tau_i", "tau_sqrt2"):
        monkeypatch.setattr(galois, name, closed_form)
    backward = [oracle_tau_sqrt(m, f) for m, f in reversed(questions)]
    assert backward[::-1] == forward


def test_prime_check_matches_trial_division():
    def by_trial_division(n):
        return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, int(n**0.5) + 1, 2))

    for n in range(-2, 30000):
        assert galois._is_odd_prime(n) == by_trial_division(n), n
    # strong pseudoprimes to the prime bases up to 37 and up to 23, and a prime
    assert not galois._is_odd_prime(318665857834031151167461)
    assert not galois._is_odd_prime(3825123056546413051)
    assert galois._is_odd_prime(2**61 - 1)
    with pytest.raises(ValueError, match="checked for primality"):
        GaloisElement(3317044064679887385961981)


def test_diff_values():
    assert diff_value(BarPartition([2, 1])) == SurdValue(1, 1, 2)
    assert diff_value(BarPartition([4, 3, 2, 1])) == SurdValue(0, 3, 6)
    assert diff_value(BarPartition([1])) == SurdValue(0, 0, 1)
    assert diff_value(BarPartition()) == SurdValue.one()


def test_surd_value_normalization():
    assert SurdValue(0, 7, 12).i_exp == 3
    assert SurdValue(0, 0, 12).radicand == 3
    with pytest.raises(ValueError):
        SurdValue(2, 0, 1)
    with pytest.raises(ValueError):
        SurdValue(0, 0, 0)


def test_tau_partition_examples():
    s3 = GaloisElement.sigma(3)
    assert tau_partition(BarPartition([2, 1]), s3) == -1
    assert tau_partition(BarPartition([4, 3, 2, 1]), s3) == -1
    assert tau_partition(BarPartition(), s3) == 1


def test_tau_partition_identity_element():
    for p in (3, 5, 7):
        one = GaloisElement.identity(p)
        for n in range(10):
            for lam in enumerate_partitions(n, "strict"):
                assert tau_partition(lam, one) == 1


def test_cores_fixed_by_p_trivial_automorphisms():
    for p in (3, 5, 7):
        for n in range(12):
            for lam in enumerate_partitions(n, "strict"):
                if bar_decompose(lam, p).weight:
                    continue
                for s in range(1, p):
                    assert tau_partition(lam, GaloisElement.p_trivial(p, s)) == 1


def test_tau_partition_against_oracle():
    for p in (3, 5):
        for f in standard_generators(p):
            for n in range(12):
                for lam in enumerate_partitions(n, "strict"):
                    assert tau_partition(lam, f) == oracle_tau_surd(diff_value(lam), f)


@pytest.mark.parametrize(
    "make",
    [
        lambda: diff_value(BarPartition([10**30 + 57, 1])),
        lambda: SurdValue(0, 0, 10**30 + 57),
    ],
    ids=["diff_value", "SurdValue"],
)
def test_surd_layer_refuses_radicands_above_the_oracle_bound(make):
    start = perf_counter()
    with pytest.raises(ValueError, match="oracle bound"):
        make()
    assert perf_counter() - start < 1.0


def test_tau_selfconjugate_examples():
    s3 = GaloisElement.sigma(3)
    assert selfconjugate_diff_value(Partition([2, 1])) == SurdValue(0, 1, 3)
    assert tau_selfconjugate(Partition([2, 1]), s3) == 1
    assert tau_selfconjugate(Partition([1]), s3) == 1
    with pytest.raises(ValueError):
        tau_selfconjugate(Partition([3, 1]), s3)


def test_tau_selfconjugate_factorization_small():
    for p in (3, 5):
        fs = standard_generators(p)
        for n in range(18):
            for lam in enumerate_partitions(n, "self_conjugate"):
                dec = ordinary_decompose(lam, p)
                for f in fs:
                    assert tau_selfconjugate(lam, f) == tau_selfconjugate(
                        dec.core, f
                    ) * tau_selfconjugate(dec.cocore, f)


def test_theorem_little_small():
    # factorization of tau through the decomposition, all three cases
    for p in (3, 5):
        sigma = GaloisElement.sigma(p)
        eps = (-1) ** ((p - 1) // 2)
        for n in range(16):
            for lam in enumerate_partitions(n, "strict"):
                dec = bar_decompose(lam, p)
                prod = tau_partition(dec.core, sigma) * tau_partition(dec.cocore, sigma)
                if dec.core.sign() == -1 and dec.cocore.sign() == -1:
                    assert tau_partition(lam, sigma) == eps * prod
                else:
                    assert tau_partition(lam, sigma) == prod
                for s in range(1, p):
                    f = GaloisElement.p_trivial(p, s)
                    assert tau_partition(lam, f) == tau_partition(
                        dec.core, f
                    ) * tau_partition(dec.cocore, f)


def test_tau_surd_is_consistent_with_components():
    v = SurdValue(1, 3, 30)
    for f in (GaloisElement.sigma(3), GaloisElement(5, 2, 2), GaloisElement(7, 0, 3)):
        expect = (tau_sqrt2(f) ** v.two_exp) * (tau_i(f) ** v.i_exp) * tau_sqrt(v.radicand, f)
        assert tau_surd(v, f) == expect
