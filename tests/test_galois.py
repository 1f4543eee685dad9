import ast
from functools import partial
from itertools import product
from math import gcd
from pathlib import Path
from random import Random
from time import perf_counter

import pytest

from barblocks import galois
from barblocks.galois import (
    ORACLE_MAX_M,
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
)
from barblocks.littlewood import bar_decompose, ordinary_decompose
from barblocks.partitions import BarPartition, Partition, enumerate_partitions
from barblocks.suites import verify

from oracles import diagonal_hooks, difference_exponents


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


def test_tau_is_a_character_of_the_galois_group():
    """tau(f o g) = tau(f) tau(g), where f o g acts by zeta -> zeta**(p**(e+e'))
    on p'-roots and by s*s' on p-th roots: the closed forms on strict
    |lambda| <= 12 and self-conjugate |lambda| <= 20, tau_sqrt and the oracle
    for m < 60."""
    assert GaloisElement(5, 1, 2).to_json() == {"p": 5, "e": 1, "s": 2}
    taus = [partial(tau_partition, lam) for n in range(13) for lam in enumerate_partitions(n, "strict")]
    taus += [partial(tau_selfconjugate, lam) for n in range(21) for lam in enumerate_partitions(n, "self_conjugate")]
    taus += [partial(tau, m) for m in range(1, 60) for tau in (tau_sqrt, oracle_tau_sqrt)]
    for p in (3, 5, 7, 11):
        fs = [GaloisElement(p, e, s) for e in range(3) for s in range(1, p)]
        for tau in taus:
            value = {(e, s): tau(GaloisElement(p, e, s)) for e in range(5) for s in range(1, p)}
            for f, g in product(fs, fs):
                assert value[f.e + g.e, f.s * g.s % p] == value[f.e, f.s] * value[g.e, g.s], (tau, f, g)


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
    with pytest.raises(ValueError, match="exceeds the oracle bound"):
        oracle_tau_sqrt(ORACLE_MAX_M + 1, GaloisElement.sigma(3))


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
    with every galois memo cleared, the closed forms and their sign-class
    helpers unavailable and the questions asked in reverse order, through
    oracle_tau_sqrt and through _oracle_sign(_odd_primes(m), f) alike."""
    questions = [
        (m, GaloisElement(p, e, s))
        for p in (3, 5, 7, 11, 13)
        for e in (0, 1, 2)
        for s in range(1, p)
        for m in range(1, 201)
    ]
    forward = [oracle_tau_sqrt(m, f) for m, f in questions]
    assert forward == [tau_sqrt(m, f) for m, f in questions]

    def closed_form(*_args):
        raise AssertionError("the oracle must not use the closed forms")

    for name in ("jacobi", "tau_sqrt", "tau_i", "tau_sqrt2", "_legendre", "_sign_class",
                 "_tau_partition_cached"):
        monkeypatch.setattr(galois, name, closed_form)
    for ask in (oracle_tau_sqrt, lambda m, f: galois._oracle_sign(galois._odd_primes(m), f)):
        for obj in vars(galois).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
        backward = [ask(m, f) for m, f in reversed(questions)]
        assert backward[::-1] == forward


def test_the_oracle_section_names_no_closed_form():
    """No function of the oracle section of galois.py names the Jacobi
    symbol, the sign-class helpers or a tau_* closed form."""
    source = Path(galois.__file__).read_text()
    start = source.splitlines().index("# exact cyclotomic oracle") + 1
    functions = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.lineno > start
    ]
    assert {"_gauss_sum", "_gauss_sign", "_odd_primes", "_oracle_sign"} <= {f.name for f in functions}
    forbidden = {"jacobi", "_legendre", "_sign_class", "_tau_partition_cached"}
    for function in functions:
        for node in ast.walk(function):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            assert name not in forbidden and not str(name).startswith("tau_"), (function.name, name)


def test_gauss_sums_are_built_from_the_squares_mod_q():
    """For every odd prime q < 2000 the Gauss-sum vector holds Euler's
    criterion a**((q-1)/2) mod q at each exponent a > 0, and its canonical
    form is that vector reduced mod Phi_q = 1 + x + ... + x^(q-1)."""
    galois._gauss_sum.cache_clear()
    for q in range(3, 2000, 2):
        if any(q % d == 0 for d in range(3, int(q**0.5) + 1, 2)):
            continue
        euler = [0] + [1 if pow(a, (q - 1) // 2, q) == 1 else -1 for a in range(1, q)]
        reduced = [v - euler[q - 1] for v in euler]  # minus the top coefficient times Phi_q
        assert reduced[q - 1] == 0
        vec, canon = galois._gauss_sum(q)
        assert list(vec) == euler, q
        assert list(canon) == reduced[: q - 1], q
    galois._gauss_sum.cache_clear()


def _odd_primes_below(n):
    return [q for q in range(3, n, 2) if all(q % d for d in range(3, int(q**0.5) + 1, 2))]


def test_an_exponent_map_permutes_the_coefficients_by_the_inverse():
    """zeta_n -> zeta_n**c sends the coefficient at j to j*c, so the image
    holds at k the coefficient at k * c**-1: the accumulation definition on
    random vectors, at n = 8 and every odd prime n < 200, for every c
    coprime to n.  (c/q) = (c**-1/q) and c = c**-1 mod 8, so only this test
    tells c from its inverse.  A c that is not invertible is refused."""
    rng = Random(31)
    for n in [8, *_odd_primes_below(200)]:
        vec = [rng.randint(-9, 9) for _ in range(n)]
        for c in range(n):
            if gcd(c, n) != 1:
                with pytest.raises(ValueError, match="invertible"):
                    galois._apply_exponent(vec, n, c)
                continue
            image = [0] * n
            for j, v in enumerate(vec):
                image[j * c % n] += v
            assert galois._apply_exponent(vec, n, c) == image, (n, c)
    with pytest.raises(ValueError, match="invertible"):
        galois._apply_exponent([0, 1, 0, 0, 0, 0, 0, 1], 8, 6)


def _clear_galois_memos():
    for obj in vars(galois).values():
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()


def test_the_oracle_sweep_asks_once_per_input_and_reports_every_f(monkeypatch):
    """verify tau_oracle asks the oracle once per e, and once per (e, s) only
    where p divides the squarefree part of m: 2,124 evaluations at p = 13,
    bound 400, for 14,400 comparisons.  With tau_sqrt doctored to 0 every
    (m, f) is a witness, in order, and its oracle sign equals
    oracle_tau_sqrt(m, f) asked anew with every galois memo cleared."""
    real, asked = galois._oracle_sign, []

    def counted(primes, f):
        asked.append((primes, f))
        return real(primes, f)

    monkeypatch.setattr(galois, "_oracle_sign", counted)
    monkeypatch.setattr(galois, "tau_sqrt", lambda m, f: 0)
    for p in (3, 5, 7, 11, 13):
        _clear_galois_memos()
        asked.clear()
        report = verify("tau_oracle", p, 400)
        at_p = sum(1 for m in range(1, 401) if galois._factorize(m).get(p, 0) % 2)
        assert len(asked) == 3 * 400 + 3 * (p - 2) * at_p
        if p == 13:
            assert len(asked) == 2124
        questions = [(m, GaloisElement(p, e, s)) for m in range(1, 401) for e in range(3) for s in range(1, p)]
        assert report.cases == len(report.violations) == len(questions)
        _clear_galois_memos()
        for (m, f), witness in zip(questions, report.violations):
            assert witness == {"m": m, "f": f.to_json(), "closed": 0, "oracle": oracle_tau_sqrt(m, f)}


@pytest.mark.parametrize(
    "m, f",
    [(10, GaloisElement(5, 1, 3)), (75, GaloisElement(3, 2, 2)), (6, GaloisElement(5, 2, 4))],
    ids=["p divides m", "p divides m, e even", "p does not divide m"],
)
def test_a_closed_form_wrong_at_one_f_is_one_witness(monkeypatch, m, f):
    """The sweep groups only the oracle: a tau_sqrt doctored at a single
    (m, f), also where the oracle is asked once for many s, is reported at
    that (m, f) alone."""
    real = galois.tau_sqrt
    monkeypatch.setattr(galois, "tau_sqrt", lambda m2, f2: -real(m2, f2) if (m2, f2) == (m, f) else real(m2, f2))
    report = verify("tau_oracle", f.p, 100)
    closed = real(m, f)
    assert report.violations == ({"m": m, "f": f.to_json(), "closed": -closed, "oracle": closed},)


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
    assert diff_value(BarPartition()) == SurdValue(0, 0, 1)


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
        one = GaloisElement(p, 0, 1)
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


def _oracle_surd(size: int, radicands) -> SurdValue:
    """The difference value of a strict tuple of radicands of the given size,
    with its exponents from tests/oracles.py rather than from the library."""
    return SurdValue(*difference_exponents(size, len(radicands)), squarefree_of_product(radicands))


def _elements(primes, exponents):
    return [GaloisElement(p, e, s) for p in primes for e in exponents for s in range(1, p)]


def test_tau_partition_against_oracle():
    """Every strict partition of size <= 11 under every element with e <= 3
    at p <= 13, so spin labels meet e = 2 and 3 too, which share their sign
    classes with e = 0 and 1: 7,480 comparisons with the exact route."""
    lams = [lam for n in range(12) for lam in enumerate_partitions(n, "strict")]
    surds = {lam: _oracle_surd(lam.size, lam.parts) for lam in lams}
    assert all(diff_value(lam) == surd for lam, surd in surds.items())
    for f in _elements((3, 5, 7, 11, 13), range(4)):
        for lam, surd in surds.items():
            assert tau_partition(lam, f) == oracle_tau_surd(surd, f), (lam, f)


def test_tau_selfconjugate_against_oracle():
    """Every self-conjugate partition of size <= 40 under every element with
    e <= 2: 50,592 comparisons with the exact route."""
    lams = [lam for n in range(41) for lam in enumerate_partitions(n, "self_conjugate")]
    surds = {lam: _oracle_surd(lam.size, diagonal_hooks(lam)) for lam in lams}
    assert all(selfconjugate_diff_value(lam) == surd for lam, surd in surds.items())
    for f in _elements((3, 5, 7, 11, 13), range(3)):
        for lam, surd in surds.items():
            assert tau_selfconjugate(lam, f) == oracle_tau_surd(surd, f), (lam, f)


def test_tau_partition_is_the_product_of_the_per_f_closed_forms():
    """tau_partition, evaluated once per sign class (p, e & 1, (s/p)), is at
    every f the product sqrt(2)**a * i**b * prod sqrt(m) of the closed forms
    at that f: every strict partition of size <= 15, e <= 3 and every s at
    p <= 17."""
    lams = [lam for n in range(16) for lam in enumerate_partitions(n, "strict")]
    for f in _elements((3, 5, 7, 11, 13, 17), range(4)):
        for lam in lams:
            a, b = difference_exponents(lam.size, lam.length)
            product = tau_sqrt2(f) ** a * tau_i(f) ** b
            for m in lam.parts:
                product *= tau_sqrt(m, f)
            assert tau_partition(lam, f) == product, (lam, f)


def test_sign_classes_in_order_of_first_appearance():
    """At p = 7 the residues are 1, 2 and 4; e counts only mod 2.  spread
    gives each f the value of its class's first f, and calls value once per
    class, in order of first appearance."""
    fs = [GaloisElement(7, e, s) for e in (3, 0, 2, 1) for s in (3, 1, 2, 6, 5, 4)]
    spread = galois._sign_classes(fs)
    reps = [(3, 3), (3, 1), (0, 3), (0, 1)]
    classes = [0, 1, 1, 0, 0, 1] + [2, 3, 3, 2, 2, 3] * 2 + [0, 1, 1, 0, 0, 1]
    assert spread(lambda f: (f.e, f.s)) == [reps[k] for k in classes]
    calls = []
    assert spread(lambda f: calls.append((f.e, f.s)) or len(calls)) == [k + 1 for k in classes]
    assert calls == reps


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

