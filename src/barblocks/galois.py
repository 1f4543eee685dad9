"""Sign action of Galois automorphisms on the quadratic surds attached to
character pairs.

An automorphism is modeled by (p, e, s): it raises every root of unity of
order prime to p to the power p**e and raises p-th roots of unity to the
power s.  Only the residue of s mod p matters here, because every quadratic
surd that occurs lies in the compositum of Q(zeta_8), Q(zeta_q) for odd
primes q != p, and Q(zeta_p).

Two independent evaluation routes are provided:

* closed forms (`tau_i`, `tau_sqrt2`, `tau_sqrt`) built on the Jacobi symbol,
  with sqrt(p) handled through the scaling of the quadratic Gauss sum, and
* an exact oracle (`oracle_tau_sqrt`) that writes the surd as an integer
  vector of roots of unity (sqrt(2) = zeta_8 + zeta_8^-1, Gauss sums for odd
  primes), applies the automorphism exponent-wise and reads off the sign by
  comparing canonical forms in Z[x]/Phi_n(x).

The oracle never consults the Jacobi-symbol formulas; agreement of the two
routes is the keystone correctness check of this module.

An automorphism acts on Z[zeta_q] only through the exponent c it induces
there (s mod q when q = p, p**e mod q otherwise), and on Z[zeta_8] through
p**e mod 8.  So the oracle makes each exact comparison once per field and
exponent, (q, c) for the Gauss sum at q and c for i and sqrt(2), and memoizes
the resulting sign.  The key is c itself, never its Legendre symbol: that
symbol is what the closed forms compute, and keying by it would make the
oracle depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from typing import Iterable

from .partitions import BarPartition, Partition

ORACLE_MAX_M = 10**6


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n, via binary reciprocity."""
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


@dataclass(frozen=True)
class GaloisElement:
    """Automorphism acting by zeta -> zeta**(p**e) on p'-roots of unity and
    by zeta_p -> zeta_p**s on p-th roots."""

    p: int
    e: int = 1
    s: int = 1

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.e < 0:
            raise ValueError("e must be non-negative")
        s = self.s % self.p
        if s == 0:
            raise ValueError("s must be coprime to p")
        object.__setattr__(self, "s", s)

    @classmethod
    def sigma(cls, p: int) -> "GaloisElement":
        """The generator acting by x -> x**p on p'-roots, trivially on
        p-power roots."""
        return cls(p, e=1, s=1)

    @classmethod
    def identity(cls, p: int) -> "GaloisElement":
        return cls(p, e=0, s=1)

    @classmethod
    def p_trivial(cls, p: int, s: int) -> "GaloisElement":
        """An automorphism fixing every p'-root of unity."""
        return cls(p, e=0, s=s)

    def compose(self, other: "GaloisElement") -> "GaloisElement":
        if self.p != other.p:
            raise ValueError("cannot compose automorphisms at different primes")
        return GaloisElement(self.p, self.e + other.e, (self.s * other.s) % self.p)

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "s": self.s}

    @classmethod
    def from_json(cls, data: dict) -> "GaloisElement":
        return cls(data["p"], data["e"], data["s"])


def standard_generators(p: int) -> tuple[GaloisElement, ...]:
    """sigma_p together with every automorphism trivial on p'-roots."""
    return (GaloisElement.sigma(p),) + tuple(
        GaloisElement.p_trivial(p, s) for s in range(1, p)
    )


def tau_i(f: GaloisElement) -> int:
    """Sign by which f scales i."""
    return jacobi(-1, f.p) ** f.e


def tau_sqrt2(f: GaloisElement) -> int:
    """Sign by which f scales sqrt(2)."""
    return jacobi(2, f.p) ** f.e


def tau_sqrt(m: int, f: GaloisElement) -> int:
    """Sign by which f scales sqrt(m), m a positive integer.

    Writing m = p**a * m' with gcd(m', p) = 1, the p'-part contributes the
    Jacobi symbol (m'/p)**e and sqrt(p) (when a is odd) is scaled by
    (s/p) * tau_i(f)**[p = 3 mod 4], the factor by which f scales the
    quadratic Gauss sum at p.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    p = f.p
    a = 0
    m_prime = m
    while m_prime % p == 0:
        m_prime //= p
        a += 1
    sign = jacobi(m_prime, p) ** f.e
    if a % 2:
        sign *= jacobi(f.s, p)
        if p % 4 == 3:
            sign *= tau_i(f)
    return sign


def _tau_product(two_exp: int, i_exp: int, radicands: Iterable[int], f: GaloisElement) -> int:
    """Sign by which f scales sqrt(2)**two_exp * i**i_exp * sqrt(prod radicands);
    tau_sqrt is multiplicative and blind to squares, so nothing is factorized."""
    sign = (tau_sqrt2(f) ** two_exp) * (tau_i(f) ** i_exp)
    for m in radicands:
        sign *= tau_sqrt(m, f)
    return sign


def tau_surd(v: SurdValue, f: GaloisElement) -> int:
    return _tau_product(v.two_exp, v.i_exp, (v.radicand,), f)


def _diff_exponents(n: int, k: int) -> tuple[int, int]:
    """(two_exp, i_exp) of the difference value of a strict partition of n
    into k parts."""
    two_exp = (n - k) % 2
    return two_exp, (n - k + two_exp) // 2


@lru_cache(maxsize=None)
def _tau_partition_cached(parts: tuple[int, ...], f: GaloisElement) -> int:
    return _tau_product(*_diff_exponents(sum(parts), len(parts)), parts, f)


def tau_partition(lam: BarPartition, f: GaloisElement) -> int:
    """Sign by which f permutes the associate pair labeled by a strict
    partition (+1 for the empty partition by convention)."""
    if not isinstance(lam, BarPartition):
        lam = BarPartition(lam)
    return _tau_partition_cached(lam.parts, f)


def _selfconjugate_hooks(lam: Partition) -> tuple[int, ...]:
    if not lam.is_self_conjugate():
        raise ValueError(f"{lam!r} is not self-conjugate")
    return lam.diagonal_hooks()


def tau_selfconjugate(lam: Partition, f: GaloisElement) -> int:
    hooks = _selfconjugate_hooks(lam)
    return _tau_product(0, (lam.size - len(hooks)) // 2, hooks, f)


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
    if n < 1:
        raise ValueError("n must be positive")
    return squarefree_of_product((n,))


def squarefree_of_product(xs: Iterable[int]) -> int:
    parities: dict[int, int] = {}
    for x in xs:
        for q, k in _factorize(x).items():
            parities[q] = (parities.get(q, 0) + k) % 2
    out = 1
    for q, k in parities.items():
        if k:
            out *= q
    return out


@dataclass(frozen=True)
class SurdValue:
    """Exact value sqrt(2)**two_exp * i**i_exp * sqrt(radicand), with the
    square part of the radicand discarded (it never moves under Galois)."""

    two_exp: int
    i_exp: int
    radicand: int

    def __post_init__(self):
        if self.two_exp not in (0, 1):
            raise ValueError("two_exp must be 0 or 1")
        if self.radicand < 1:
            raise ValueError("radicand must be positive")
        object.__setattr__(self, "i_exp", self.i_exp % 4)
        object.__setattr__(self, "radicand", squarefree_part(self.radicand))

    @classmethod
    def one(cls) -> "SurdValue":
        return cls(0, 0, 1)


def diff_value(lam: BarPartition) -> SurdValue:
    """Nonzero value of the difference character attached to a strict
    partition, up to sign: sqrt(2) * i**((n-k+1)/2) * sqrt(prod parts) when
    the sign is -1, i**((n-k)/2) * sqrt(prod parts) when it is +1."""
    if not isinstance(lam, BarPartition):
        lam = BarPartition(lam)
    return SurdValue(*_diff_exponents(lam.size, lam.length), squarefree_of_product(lam.parts))


def selfconjugate_diff_value(lam: Partition) -> SurdValue:
    """Difference-character value for a self-conjugate partition: the part
    lengths are replaced by the diagonal hook lengths."""
    hooks = _selfconjugate_hooks(lam)
    return SurdValue(0, (lam.size - len(hooks)) // 2, squarefree_of_product(hooks))


def _legendre_euler(a: int, q: int) -> int:
    # Euler's criterion; deliberately not routed through jacobi()
    r = pow(a % q, (q - 1) // 2, q)
    return 1 if r == 1 else -1


def _canon8(vec: list[int]) -> tuple[int, ...]:
    # Phi_8 = x^4 + 1
    return tuple(vec[i] - vec[i + 4] for i in range(4))


def _canon_prime(vec: list[int], q: int) -> tuple[int, ...]:
    # Phi_q = 1 + x + ... + x^(q-1)
    return tuple(v - vec[q - 1] for v in vec[: q - 1])


def _apply_exponent(vec: list[int], n: int, c: int) -> list[int]:
    if gcd(c, n) != 1:
        raise ValueError("exponent map must be invertible")
    out = [0] * n
    for j, v in enumerate(vec):
        out[(j * c) % n] += v
    return out


def _scaling_sign(vec: list[int], n: int, c: int, canon) -> int:
    base = canon(vec)
    image = canon(_apply_exponent(vec, n, c))
    if image == base:
        return 1
    if image == tuple(-x for x in base):
        return -1
    raise ArithmeticError("automorphism does not scale this element by a sign")


# i = zeta_8^2 and sqrt(2) = zeta_8 + zeta_8^-1
_ZETA8 = {"i": (0, 0, 1, 0, 0, 0, 0, 0), "sqrt2": (0, 1, 0, 0, 0, 0, 0, 1)}


@lru_cache(maxsize=None)
def _zeta8_sign(name: str, c: int) -> int:
    """Sign by which zeta_8 -> zeta_8**c scales the element ``name``."""
    return _scaling_sign(list(_ZETA8[name]), 8, c, _canon8)


def oracle_tau_i(f: GaloisElement) -> int:
    return _zeta8_sign("i", pow(f.p, f.e, 8))


def oracle_tau_sqrt2(f: GaloisElement) -> int:
    return _zeta8_sign("sqrt2", pow(f.p, f.e, 8))


@lru_cache(maxsize=None)
def _gauss_sign(q: int, c: int) -> int:
    """Sign by which zeta_q -> zeta_q**c scales the quadratic Gauss sum at
    the odd prime q."""
    vec = [0] * q
    for a in range(1, q):
        vec[a] = _legendre_euler(a, q)
    return _scaling_sign(vec, q, c, lambda v: _canon_prime(v, q))


def _oracle_tau_gauss(q: int, f: GaloisElement) -> int:
    """Sign by which f scales the quadratic Gauss sum at the odd prime q: f
    acts on Z[zeta_q] only through the exponent it induces there."""
    return _gauss_sign(q, f.s % q if q == f.p else pow(f.p, f.e, q))


def oracle_tau_sqrt(m: int, f: GaloisElement, bound: int = ORACLE_MAX_M) -> int:
    """Exact-arithmetic evaluation of the sign by which f scales sqrt(m).

    sqrt(m) is expressed, up to a rational factor, as a product of
    zeta_8-combinations and Gauss sums; f acts exponent-wise on each factor
    and each factor's sign is read off by exact comparison.
    """
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if m > bound:
        raise ValueError(f"m = {m} exceeds the oracle bound {bound}")
    sign = 1
    for q, k in _factorize(m).items():
        if k % 2 == 0:
            continue
        if q == 2:
            sign *= oracle_tau_sqrt2(f)
        else:
            # sqrt(q) = (unit) * i^{-[q = 3 mod 4]} * GaussSum(q)
            sign *= _oracle_tau_gauss(q, f)
            if q % 4 == 3:
                sign *= oracle_tau_i(f)
    return sign


def oracle_tau_surd(v: SurdValue, f: GaloisElement) -> int:
    return (
        (oracle_tau_sqrt2(f) ** v.two_exp)
        * (oracle_tau_i(f) ** v.i_exp)
        * oracle_tau_sqrt(v.radicand, f)
    )
