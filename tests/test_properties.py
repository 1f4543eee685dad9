"""Property tests far beyond the exhaustive bounds.

hypothesis (an optional test dependency, see the ``test`` extra) draws strict,
ordinary and self-conjugate partitions of size 100-500 and lopsided ones with
a single part up to 10**6.  Cores are compared with the removal-based routes
of tests/oracles.py; every draw also checks the round trip through
reconstruct and the size, length, sign and Durfee identities, and every strict
draw compares the twisted abacus of abacus.py with the engine's record.
Every label the engine builds unchecked equals its validated rebuild.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from barblocks.abacus import BarAbacus  # noqa: E402
from barblocks.littlewood import (  # noqa: E402
    _BAR,
    _ORDINARY,
    _members,
    bar_decompose,
    bar_reconstruct,
    ordinary_decompose,
    ordinary_reconstruct,
)
from barblocks.partitions import (  # noqa: E402
    BarPartition,
    FrobeniusSymbol,
    Partition,
    enumerate_partitions,
)
from oracles import bar_core_by_removal, p_core_by_hook_removal  # noqa: E402

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=40)
MODULI = st.sampled_from((3, 5, 7, 11, 13))


@st.composite
def partitions_of(draw, sizes, strict):
    """A partition of a drawn size, built part by part; a strict one keeps
    every next part small enough that the rest still fits below it."""
    remaining = draw(sizes)
    parts = []
    while remaining:
        hi = remaining if not parts else min(remaining, parts[-1] - strict)
        lo = 1
        if strict:
            while lo * (lo + 1) // 2 < remaining:
                lo += 1
        part = draw(st.integers(lo, hi))
        parts.append(part)
        remaining -= part
    return BarPartition(parts) if strict else Partition(parts)


@st.composite
def lopsided(draw, strict):
    """One part up to 10**6 on top of a small partition."""
    rest = draw(partitions_of(st.integers(0, 30), strict))
    big = draw(st.integers(31, 10**6))
    return (BarPartition if strict else Partition)((big,) + rest.parts)


@st.composite
def self_conjugate(draw):
    """Distinct diagonal arms from a strict partition; sizes about 100-500."""
    arms = [x - 1 for x in draw(partitions_of(st.integers(50, 250), strict=True))]
    return FrobeniusSymbol(arms, arms).to_partition()


def _check_bar(lam, t):
    dec = bar_decompose(lam, t)
    assert bar_reconstruct(dec.core, dec.quotient, t) == lam
    assert dec.weight == sum(q.size for q in dec.quotient)
    assert lam.size == dec.core.size + t * dec.weight
    assert lam.length == dec.core.length + dec.cocore.length - 2 * dec.d
    assert lam.sign() == dec.core.sign() * dec.cocore.sign()
    # The abacus view places the beads and twists on frozensets, its own
    # steps; FencedRunner.normalize goes through FencedRunner.shift, which
    # is the engine's partitions._shift on int tuples.
    tw = BarAbacus.from_partition(lam, t).twist()
    pointed = [runner.normalize() for runner in tw.shifted]
    assert BarPartition(sorted(tw.runner0, reverse=True)) == dec.quotient[0]
    assert tuple(c for _, c in pointed) == dec.charvec
    assert tuple(runner.to_partition() for runner, _ in pointed) == dec.quotient[1:]
    return dec


def _check_ordinary(lam, p):
    dec = ordinary_decompose(lam, p)
    assert ordinary_reconstruct(dec.core, dec.quotient, p) == lam
    assert dec.weight == sum(q.size for q in dec.quotient)
    assert lam.size == dec.core.size + p * dec.weight
    return dec


@PROPERTY
@given(partitions_of(st.integers(100, 500), strict=True), MODULI)
def test_strict_partitions(lam, t):
    assert _check_bar(lam, t).core == bar_core_by_removal(lam, t)


def test_strict_partitions_exhaustively():
    """All 5,424 pairs of a strict partition of size <= 25 and an odd t <= 13."""
    for t in (3, 5, 7, 9, 11, 13):
        for n in range(26):
            for lam in enumerate_partitions(n, "strict"):
                _check_bar(lam, t)


@PROPERTY
@given(lopsided(strict=True), MODULI)
def test_lopsided_strict_partitions(lam, t):
    _check_bar(lam, t)


@PROPERTY
@given(partitions_of(st.integers(100, 500), strict=False), MODULI)
def test_ordinary_partitions(lam, p):
    assert _check_ordinary(lam, p).core == p_core_by_hook_removal(lam, p)


@PROPERTY
@given(lopsided(strict=False), MODULI)
def test_lopsided_ordinary_partitions(lam, p):
    _check_ordinary(lam, p)


@PROPERTY
@given(self_conjugate(), MODULI)
def test_self_conjugate_partitions(lam, p):
    dec = _check_ordinary(lam, p)
    assert dec.core == p_core_by_hook_removal(lam, p)
    assert lam.durfee() == dec.core.durfee() + dec.cocore.durfee() - 2 * dec.d


@PROPERTY
@given(
    st.booleans().flatmap(lambda strict: st.tuples(partitions_of(st.integers(0, 300), strict), st.just(strict))),
    st.integers(1, 50).map(lambda k: 2 * k + 1),
)
def test_engine_labels_equal_their_validated_rebuild(drawn, m):
    """Every label the engine builds unchecked (partitions._trusted) is one
    the validating constructor accepts: the core, cocore and quotient
    components of a strict or ordinary partition of size <= 300 at an odd
    modulus <= 101, its reconstruction, and the members of its core's blocks
    of weight <= 2 (listed without the block memo)."""
    lam, strict = drawn
    layout, decompose, reconstruct = (
        (_BAR, bar_decompose, bar_reconstruct) if strict
        else (_ORDINARY, ordinary_decompose, ordinary_reconstruct)
    )
    dec = decompose(lam, m)
    built = [dec.core, dec.cocore, *dec.quotient, reconstruct(dec.core, dec.quotient, m)]
    for w in range(3):
        built += _members.__wrapped__(layout, dec.core.parts, m, w)
    for x in built:
        assert type(x)(x.parts) == x
