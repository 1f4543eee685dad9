"""Sign action of Galois automorphisms on the quadratic surds attached to
character pairs.

An automorphism is modeled by (p, e, s): it raises every root of unity of
order prime to p to the power p**e and raises p-th roots of unity to the
power s.  Only the residue of s mod p matters here, because every quadratic
surd that occurs lies in the compositum of Q(zeta_8), Q(zeta_q) for odd
primes q != p, and Q(zeta_p).

Two independent evaluation routes are provided:

* closed forms (`tau_i`, `tau_sqrt2`, `tau_sqrt`) built on the Legendre symbol
  (Euler's criterion, or the Jacobi symbol once per residue: ``_legendre``),
  with sqrt(p) handled through the scaling of the quadratic Gauss sum, and
* an exact oracle (`oracle_tau_sqrt`) that writes the surd as an integer
  vector of roots of unity (sqrt(2) = zeta_8 + zeta_8^-1, Gauss sums for odd
  primes), applies the automorphism exponent-wise and reads off the sign by
  comparing canonical forms in Z[x]/Phi_n(x).

The oracle never consults the Jacobi-symbol formulas; agreement of the two
routes is the keystone correctness check of this module.

Each closed form depends on f only through its sign class (p, e mod 2, (s/p))
(Gauss sums and reciprocity: Ireland and Rosen, ch. 6).  So the tau memo is
keyed by the class, and a sweep spreads tau over the classes of its
automorphisms (``_sign_classes``): one evaluation per class, one value per f.
``tau_i``, ``tau_sqrt2``, ``tau_sqrt`` and the oracle take each f as it is.

An automorphism acts on Z[zeta_q] only through the exponent c it induces
there (s mod q when q = p, p**e mod q otherwise), and on Z[zeta_8] through
p**e mod 8.  So the oracle makes each exact comparison (a permutation of
exponents) once per field and exponent, (q, c) for the Gauss sum at q and c
for i and sqrt(2), and memoizes its sign; a sweep asks the oracle once per
e, and per (e, s) only where p divides m's squarefree part.  The key is c
itself, never its Legendre symbol: keying by the symbol the closed forms
compute would make the oracle depend on them.  Each Gauss sum is built once
per field, from the squares mod q, and a sweep factors each m once
(``_odd_primes``).
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import lru_cache
from math import gcd, prod
from operator import add, index

from .partitions import BarPartition, Partition, _as, _frobenius, _Record

ORACLE_MAX_M = 10**6


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, via binary reciprocity."""
    a, n = index(a), index(n)
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


# Miller-Rabin with the prime bases 2..41 decides primality exactly for every
# n below this limit (Sorenson and Webster, Math. Comp. 86 (2017)).
_PRIME_CHECK_LIMIT = 3317044064679887385961981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


@lru_cache(maxsize=None)
def _is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    if p >= _PRIME_CHECK_LIMIT:
        raise ValueError(
            f"p must be below {_PRIME_CHECK_LIMIT} to be checked for primality, got {p}"
        )
    if p in _PRIME_BASES:
        return True
    d, r = p - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _odd_prime(p) -> int:
    """p read by operator.index, refused unless it is an odd prime: the one
    check of a prime argument, made where it enters (automorphisms, block ids,
    verify, the blocks command, and the valuations on a memo miss)."""
    p = index(p)
    if not _is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return p


class GaloisElement(_Record):
    """Automorphism acting by zeta -> zeta**(p**e) on p'-roots of unity and
    by zeta_p -> zeta_p**s on p-th roots."""

    __slots__ = ("p", "e", "s")

    def __init__(self, p: int, e: int = 1, s: int = 1):
        p, e, s = index(p), index(e), index(s)
        _odd_prime(p)
        if e < 0:
            raise ValueError("e must be non-negative")
        s %= p
        if s == 0:
            raise ValueError("s must be coprime to p")
        self._set(p, e, s)

    @classmethod
    def sigma(cls, p: int) -> "GaloisElement":
        """The generator acting by x -> x**p on p'-roots, trivially on
        p-power roots."""
        return cls(p, e=1, s=1)

    @classmethod
    def p_trivial(cls, p: int, s: int) -> "GaloisElement":
        """An automorphism fixing every p'-root of unity."""
        return cls(p, e=0, s=s)


def standard_generators(p: int) -> tuple[GaloisElement, ...]:
    """sigma_p together with every automorphism trivial on p'-roots."""
    return (GaloisElement.sigma(p),) + tuple(
        GaloisElement.p_trivial(p, s) for s in range(1, p)
    )


def tau_i(f: GaloisElement) -> int:
    """Sign by which f scales i."""
    return _legendre(f.p - 1, f.p) ** f.e


def tau_sqrt2(f: GaloisElement) -> int:
    """Sign by which f scales sqrt(2)."""
    return _legendre(2, f.p) ** f.e


def tau_sqrt(m: int, f: GaloisElement) -> int:
    """Sign by which f scales sqrt(m), m a positive integer.

    Writing m = p**a * m' with gcd(m', p) = 1, the p'-part contributes the
    Legendre symbol (m'/p)**e, read by Euler's criterion, and sqrt(p) (when
    a is odd) is scaled by (s/p) * tau_i(f)**[p = 3 mod 4], the factor by
    which f scales the quadratic Gauss sum at p.
    """
    m = index(m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    p, a = f.p, 0
    while m % p == 0:
        m //= p
        a += 1
    sign = -1 if f.e & 1 and pow(m, p >> 1, p) != 1 else 1
    if a % 2:
        sign *= _legendre(f.s, p)
        if p % 4 == 3:
            sign *= tau_i(f)
    return sign


def _diff_exponents(n: int, k: int) -> tuple[int, int]:
    """(two_exp, i_exp) of the difference value of a strict partition of n
    into k parts."""
    two_exp = (n - k) % 2
    return two_exp, (n - k + two_exp) // 2


@lru_cache(maxsize=None)
def _legendre(s: int, p: int) -> int:
    return jacobi(s, p)


def _sign_class(f: GaloisElement) -> tuple[int, int, int]:
    return f.p, f.e & 1, _legendre(f.s, f.p)


def _sign_classes(fs: Iterable[GaloisElement]):
    """spread(value) -> [value(f) for f in fs], with value called once per
    sign class of fs, on the class's first f, in order of first appearance."""
    reps, seen, classes = [], {}, []
    for f in fs:
        key = _sign_class(f)
        if key not in seen:
            seen[key] = len(reps)
            reps.append(f)
        classes.append(seen[key])

    def spread(value):
        values = [value(f) for f in reps]
        return [values[k] for k in classes]

    return spread


@lru_cache(maxsize=8192)
def _tau_partition_cached(parts: tuple[int, ...], p: int, odd: int, chi: int) -> int:
    """tau of the strict parts on the sign class (p, e & 1, (s/p)): the closed
    forms multiply, so with p**a the p-part of their product and u the unit
    2**two_exp * (-1)**(i_exp + a) * (p'-parts), tau is (u/p)**e * (s/p)**a."""
    two_exp, i_exp = _diff_exponents(sum(parts), len(parts))
    unit, a = 2**two_exp * (-1) ** i_exp, 0
    for m in parts:
        while m % p == 0:
            m //= p
            a += 1
        unit = unit * m % p
    return jacobi(unit * (-1) ** a, p) ** odd * chi**a


def tau_partition(lam: BarPartition, f: GaloisElement) -> int:
    """Sign by which f permutes the associate pair labeled by a strict
    partition (+1 for the empty partition by convention)."""
    return _tau_partition_cached(_as(BarPartition, lam).parts, *_sign_class(f))


def _selfconjugate_hooks(lam: Partition) -> tuple[int, ...]:
    """The diagonal hooks 2a+1 of a self-conjugate partition; they sum to its
    size.  They are distinct and odd, so they read as a strict partition whose
    difference exponents are (0, (size - length)/2)."""
    lam = _as(Partition, lam)
    arms, legs = _frobenius(lam.parts)
    if arms != legs:
        raise ValueError(f"{lam!r} is not self-conjugate")
    return tuple(2 * a + 1 for a in arms)


def tau_selfconjugate(lam: Partition, f: GaloisElement) -> int:
    return _tau_partition_cached(_selfconjugate_hooks(lam), *_sign_class(f))


# ---------------------------------------------------------------------------
# exact cyclotomic oracle
#
# Elements of Z[zeta_n] are held as integer coefficient vectors indexed by
# exponents 0..n-1.  Applying an automorphism zeta -> zeta**c permutes the
# exponents; equality of algebraic numbers is decided on canonical forms
# modulo the cyclotomic polynomial (n = 8 or n an odd prime below).  Only
# this section factorizes integers, and only up to ORACLE_MAX_M.


def _factorize(n: int) -> dict[int, int]:
    """Trial division, refused above the oracle bound instead of running for ages."""
    if n > ORACLE_MAX_M:
        raise ValueError(f"cannot factorize {n}: it exceeds the oracle bound {ORACLE_MAX_M}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(n: int) -> int:
    """Product of the primes dividing n to an odd power."""
    n = index(n)
    if n < 1:
        raise ValueError("n must be positive")
    return squarefree_of_product((n,))


def squarefree_of_product(xs: Iterable[int]) -> int:
    parities: dict[int, int] = {}
    for x in xs:
        for q, k in _factorize(x).items():
            parities[q] = (parities.get(q, 0) + k) % 2
    return prod(q for q, k in parities.items() if k)


class SurdValue(_Record):
    """Exact value sqrt(2)**two_exp * i**i_exp * sqrt(radicand), with the
    square part of the radicand discarded (it never moves under Galois)."""

    __slots__ = ("two_exp", "i_exp", "radicand")

    def __init__(self, two_exp: int, i_exp: int, radicand: int):
        two_exp, i_exp = index(two_exp), index(i_exp)  # squarefree_part reads the radicand
        if two_exp not in (0, 1):
            raise ValueError("two_exp must be 0 or 1")
        if radicand < 1:
            raise ValueError("radicand must be positive")
        self._set(two_exp, i_exp % 4, squarefree_part(radicand))


def diff_value(lam: BarPartition) -> SurdValue:
    """Nonzero value of the difference character attached to a strict
    partition, up to sign: sqrt(2) * i**((n-k+1)/2) * sqrt(prod parts) when
    the sign is -1, i**((n-k)/2) * sqrt(prod parts) when it is +1."""
    lam = _as(BarPartition, lam)
    return SurdValue(*_diff_exponents(lam.size, lam.length), squarefree_of_product(lam.parts))


def selfconjugate_diff_value(lam: Partition) -> SurdValue:
    """Difference-character value for a self-conjugate partition: the part
    lengths are replaced by the diagonal hook lengths."""
    return diff_value(_selfconjugate_hooks(lam))


def _canon8(vec: list[int]) -> tuple[int, ...]:
    # Phi_8 = x^4 + 1
    return tuple(vec[i] - vec[i + 4] for i in range(4))


def _canon_prime(vec: list[int]) -> tuple[int, ...]:
    # Phi_q = 1 + x + ... + x^(q-1), q = len(vec)
    top = vec[-1]
    return tuple([v - top for v in vec[:-1]])


def _apply_exponent(vec: list[int], n: int, c: int) -> list[int]:
    """zeta_n -> zeta_n**c moves the coefficient at j to j*c: the image
    reads k * c**-1 at k."""
    if gcd(c, n) != 1:
        raise ValueError("exponent map must be invertible")
    inverse = pow(c, -1, n)
    return [vec[k * inverse % n] for k in range(n)]


def _scaling_sign(vec: list[int], n: int, c: int, canon, base=None) -> int:
    # the image is -base when its sum with base is zero
    base = canon(vec) if base is None else base
    image = canon(_apply_exponent(vec, n, c))
    if image == base:
        return 1
    if not any(map(add, image, base)):
        return -1
    raise ArithmeticError("automorphism does not scale this element by a sign")


# i = zeta_8^2 and sqrt(2) = zeta_8 + zeta_8^-1
_ZETA8 = {"i": (0, 0, 1, 0, 0, 0, 0, 0), "sqrt2": (0, 1, 0, 0, 0, 0, 0, 1)}


@lru_cache(maxsize=None)
def _zeta8_sign(name: str, c: int) -> int:
    """Sign by which zeta_8 -> zeta_8**c scales the element ``name``."""
    return _scaling_sign(_ZETA8[name], 8, c, _canon8)


def oracle_tau_i(f: GaloisElement) -> int:
    return _zeta8_sign("i", pow(f.p, f.e, 8))


def oracle_tau_sqrt2(f: GaloisElement) -> int:
    return _zeta8_sign("sqrt2", pow(f.p, f.e, 8))


@lru_cache(maxsize=None)
def _gauss_sum(q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The quadratic Gauss sum at the odd prime q, the sum of (a/q) zeta_q**a,
    read from the squares mod q, and its canonical form."""
    squares = {a * a % q for a in range(1, q // 2 + 1)}  # a and q - a alike
    vec = (0, *[1 if a in squares else -1 for a in range(1, q)])
    return vec, _canon_prime(vec)


@lru_cache(maxsize=None)
def _gauss_sign(q: int, c: int) -> int:
    """Sign by which zeta_q -> zeta_q**c scales the quadratic Gauss sum at
    the odd prime q."""
    vec, base = _gauss_sum(q)
    return _scaling_sign(vec, q, c, _canon_prime, base)


def oracle_tau_sqrt(m: int, f: GaloisElement) -> int:
    """Exact-arithmetic evaluation of the sign by which f scales sqrt(m).

    sqrt(m) is expressed, up to a rational factor, as a product of
    zeta_8-combinations and Gauss sums; f acts exponent-wise on each factor
    and each factor's sign is read off by exact comparison.
    """
    m = index(m)
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > ORACLE_MAX_M:
        raise ValueError(f"m = {m} exceeds the oracle bound {ORACLE_MAX_M}")
    return _oracle_sign(_odd_primes(m), f)


def _odd_primes(m: int) -> tuple[int, ...]:
    """The primes dividing m to an odd power."""
    return tuple(q for q, k in _factorize(m).items() if k % 2)


def _oracle_sign(primes: Iterable[int], f: GaloisElement) -> int:
    """Sign by which f scales the square root of the product of primes."""
    sign = 1
    for q in primes:
        if q == 2:
            sign *= oracle_tau_sqrt2(f)
        else:
            # sqrt(q) = (unit) * i^{-[q = 3 mod 4]} * GaussSum(q), and f acts
            # on Z[zeta_q] through the exponent it induces there
            sign *= _gauss_sign(q, f.s % q if q == f.p else pow(f.p, f.e, q))
            if q % 4 == 3:
                sign *= oracle_tau_i(f)
    return sign


def oracle_tau_surd(v: SurdValue, f: GaloisElement) -> int:
    return (
        (oracle_tau_sqrt2(f) ** v.two_exp)
        * (oracle_tau_i(f) ** v.i_exp)
        * oracle_tau_sqrt(v.radicand, f)
    )
