import ast
import json
import operator
import sys
import tracemalloc
from pathlib import Path

import pytest

from barblocks.galois import _selfconjugate_hooks
from barblocks.partitions import (
    BarPartition,
    FrobeniusSymbol,
    Partition,
    _from_frobenius,
    _gen,
    _selfconjugate,
    enumerate_partitions,
)
from oracles import count_odd_part_partitions, diagonal_hooks, hook_lengths


def test_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])
    with pytest.raises(ValueError):
        BarPartition([3, 3, 1])
    assert Partition([3, 3, 1]).parts == (3, 3, 1)


def test_immutable():
    lam = Partition([2, 1])
    with pytest.raises(AttributeError):
        lam.parts = (3,)


def test_ordering_against_a_non_partition_is_refused():
    """Partitions order by their parts among themselves; against any other
    value each comparison returns NotImplemented, so Python raises TypeError."""
    assert Partition([2, 1]) < Partition([3]) and BarPartition([2, 1]) <= Partition([2, 1])
    for other in (5, (1,), [1], None):
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(Partition([1]), other)
            with pytest.raises(TypeError):
                compare(other, BarPartition([1]))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_sign_weight_one_family(p):
    assert BarPartition([p]).sign() == 1
    for k in range(1, (p - 1) // 2 + 1):
        assert BarPartition([p - k, k]).sign() == -1


def test_sign_basics():
    assert Partition().sign() == 1
    assert BarPartition([4, 3, 2, 1]).sign() == 1
    assert BarPartition([2, 1]).sign() == -1


def test_sign_multiplicative_formula():
    parts = [Partition(p) for p in [(), (3, 1), (2, 2, 1), (5,), (4, 3, 2)]]
    for a in parts:
        for b in parts:
            expect = -1 if (a.size + b.size - a.length - b.length) % 2 else 1
            assert a.sign() * b.sign() == expect


def test_frobenius_example():
    fs = Partition([4, 4, 3, 3]).frobenius()
    assert fs.legs == (3, 2, 1)
    assert fs.arms == (3, 2, 0)
    assert FrobeniusSymbol((1, 2, 3), (0, 2, 3)).to_partition() == Partition([4, 4, 3, 3])


def test_frobenius_small_cases():
    assert Partition([2, 1, 1]).frobenius() == FrobeniusSymbol(legs=(2,), arms=(1,))
    assert Partition([3, 2]).frobenius() == FrobeniusSymbol(legs=(1, 0), arms=(2, 0))
    assert Partition().frobenius() == FrobeniusSymbol(legs=(), arms=())
    assert FrobeniusSymbol((), ()).to_partition() == Partition()


def test_frobenius_rejects_mismatch():
    with pytest.raises(ValueError):
        FrobeniusSymbol(legs=(1,), arms=(2, 0))
    with pytest.raises(ValueError):
        FrobeniusSymbol(legs=(1, 1), arms=(2, 0))


def test_frobenius_round_trip():
    # exhaustive to the stated bound; ~215k partitions, a few seconds
    for n in range(41):
        for lam in enumerate_partitions(n):
            assert lam.frobenius().to_partition() == lam


def _walked_rows(arms, legs):
    """The rows of a Frobenius symbol one at a time: each row below the
    diagonal counts the columns legs[j]+j+1 long that reach it."""
    d = len(arms)
    rows = [arms[i] + i + 1 for i in range(d)]
    j = d
    for i in range(d + 1, legs[0] + 2 if d else 0):
        while legs[j - 1] + j < i:
            j -= 1
        rows.append(j)
    return tuple(rows)


def test_frobenius_reading_equals_the_row_walk_and_keeps_no_row_list():
    """Read from runs of equal rows, the parts equal the row-by-row walk;
    a reading of 200,001 rows allocates little beyond its own tuple."""
    symbols = [lam.frobenius() for n in range(26) for lam in enumerate_partitions(n)]
    symbols.append(FrobeniusSymbol(legs=(200000, 150000, 3), arms=(9, 5, 0)))
    for fs in symbols:
        assert _from_frobenius(fs.arms, fs.legs) == _walked_rows(fs.arms, fs.legs)
    tracemalloc.start()
    try:
        parts = _from_frobenius((9, 5, 0), (200000, 150000, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(parts) == 200001
    assert peak < 1.5 * sys.getsizeof(parts)


def test_diagonal_hooks():
    assert diagonal_hooks(Partition([2, 1])) == [3]
    assert diagonal_hooks(Partition([3, 2])) == [4, 1]


def test_diagonal_hooks_sum_to_size():
    """The diagonal hooks sum to the size, and they are arms + legs + 1 of
    the Frobenius symbol."""
    for n in range(16):
        for lam in enumerate_partitions(n):
            fs = lam.frobenius()
            assert diagonal_hooks(lam) == [a + l + 1 for a, l in zip(fs.arms, fs.legs)]
            assert sum(diagonal_hooks(lam)) == n


def test_selfconjugate_hooks_are_odd():
    """galois._selfconjugate_hooks, the one diagonal-hook routine of the
    library, gives the odd diagonal hooks of every self-conjugate partition,
    and the self-conjugate walk builds the partition back from them."""
    for n in range(41):
        for lam in enumerate_partitions(n, "self_conjugate"):
            hooks = _selfconjugate_hooks(lam)
            assert hooks == tuple(diagonal_hooks(lam))
            assert all(h % 2 for h in hooks)
            assert _selfconjugate(hooks) == lam
    with pytest.raises(ValueError, match="not self-conjugate"):
        _selfconjugate_hooks(Partition([3, 1]))


def test_conjugate():
    assert Partition([4, 4, 3, 3]).conjugate() == Partition([4, 4, 4, 2])
    assert Partition([2, 1]).conjugate() == Partition([2, 1])
    assert Partition([2, 1]).is_self_conjugate()
    assert Partition().conjugate() == Partition()


def test_self_conjugate_iff_arms_equal_legs():
    for n in range(14):
        for lam in enumerate_partitions(n):
            fs = lam.frobenius()
            assert lam.is_self_conjugate() == (fs.arms == fs.legs)


def test_enumerate_strict():
    assert list(enumerate_partitions(0, "strict")) == [BarPartition()]
    got = list(enumerate_partitions(6, "strict"))
    assert got == [
        BarPartition([6]),
        BarPartition([5, 1]),
        BarPartition([4, 2]),
        BarPartition([3, 2, 1]),
    ]


def test_enumerate_self_conjugate_matches_filter():
    """The diagonal-hook route yields the self-conjugate partitions of n in
    descending order, with nothing sorted afterwards."""
    for n in range(23):
        direct = list(enumerate_partitions(n, "self_conjugate"))
        filtered = [lam for lam in enumerate_partitions(n) if lam.is_self_conjugate()]
        assert direct == filtered
    assert list(enumerate_partitions(4, "self_conjugate")) == [Partition([2, 2])]


def test_enumerate_orders_descending():
    for kind in ("all", "strict", "self_conjugate"):
        for n in (7, 10):
            got = [lam.parts for lam in enumerate_partitions(n, kind)]
            assert got == sorted(got, reverse=True)
            assert len(set(got)) == len(got)


def test_euler_strict_equals_odd():
    for n in range(41):
        strict = sum(1 for _ in enumerate_partitions(n, "strict"))
        assert strict == count_odd_part_partitions(n)


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        list(enumerate_partitions(-1))
    with pytest.raises(ValueError):
        list(enumerate_partitions(3, "weird"))


def test_enumerate_refuses_at_the_call_and_stays_lazy():
    with pytest.raises(ValueError, match="n must be non-negative"):
        enumerate_partitions(-1)
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        enumerate_partitions(3, "bogus")
    assert next(enumerate_partitions(1000)) == Partition([1000])


def test_text_round_trip():
    for text in ("", "1", "5,3,1", "14,12,8,6,3,2"):
        lam = BarPartition.from_text(text)
        assert str(lam) == text
    assert Partition.from_text("") == Partition()
    with pytest.raises(ValueError):
        BarPartition.from_text("3,3")


@pytest.mark.parametrize("text, field", [("1,,2", ""), ("1e3", "1e3"), ("x", "x"), (",", ""), ("4, 2.5", " 2.5")])
def test_text_refusal_names_literal_and_field(text, field):
    for cls in (Partition, BarPartition):
        with pytest.raises(ValueError) as exc:
            cls.from_text(text)
        assert str(exc.value) == f"cannot parse partition {text!r}: field {field!r} is not an integer"


def test_text_accepts_what_int_accepts():
    assert BarPartition.from_text(" 3, +2 ,1 ") == BarPartition([3, 2, 1])
    assert Partition.from_text("  ") == Partition()


def test_json_form():
    lam = Partition([3, 1])
    assert json.loads(json.dumps(lam.to_json())) == [3, 1]


def test_hook_lengths_product_is_integer_degree():
    """n!/prod(hooks) is the degree of an irreducible character of S_n, and
    the squares of the degrees sum to n!."""
    from math import factorial

    for n in range(1, 21):
        squares = 0
        for lam in enumerate_partitions(n):
            hooks = hook_lengths(lam)
            assert len(hooks) == n
            prod = 1
            for h in hooks:
                prod *= h
            assert factorial(n) % prod == 0
            squares += (factorial(n) // prod) ** 2
        assert squares == factorial(n)


def test_only_the_engine_builds_unchecked_labels():
    """partitions._trusted skips every check, so only partitions.py and
    littlewood.py, which call it on parts built from validated input, may
    name it."""
    src = Path(__file__).resolve().parent.parent / "src" / "barblocks"
    users = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_trusted" or (isinstance(node, ast.alias) and node.name == "_trusted"):
                users.add(path.name)
    assert users == {"partitions.py", "littlewood.py"}


@pytest.mark.parametrize("kind", ["all", "strict", "self_conjugate"])
def test_enumerated_and_conjugated_labels_equal_their_validated_rebuild(kind):
    for n in range(21):
        for lam in enumerate_partitions(n, kind):
            for x in (lam, lam.conjugate()):
                assert type(x)(x.parts) == x


def _gen_reference(n, max_part, gap, step):
    """The plain recursive walk: every first part, then every rest below it."""
    if n == 0:
        yield ()
        return
    top = min(n, max_part)
    for first in range(top - (top + 1) % step, 0, -step):
        for rest in _gen_reference(n - first, first - gap, gap, step):
            yield (first,) + rest


@pytest.mark.parametrize("gap, step", [(0, 1), (1, 1), (2, 2)])
def test_pruned_enumeration_equals_the_plain_walk(gap, step):
    """The iterative, pruned _gen yields the tuples of the recursive walk, in
    its order, for every n <= 40 and three bounds on the largest part."""
    for n in range(41):
        for max_part in sorted({n, n // 2, 3}):
            want = list(_gen_reference(n, max_part, gap, step))
            assert list(_gen(n, max_part, gap, step)) == want, (n, max_part)


def test_enumeration_is_lazy_and_needs_no_recursion_depth():
    """The first tuples come at once at any n, and a tuple may be longer than
    the recursion limit."""
    first = _gen(10**9, 10**9, 0, 1)
    assert next(first) == (10**9,)
    assert next(first) == (10**9 - 1, 1)
    ones = next(_gen(5000, 1, 0, 1))
    assert ones == (1,) * 5000


def test_frobenius_symbols_built_unchecked_equal_their_validated_rebuild():
    for n in range(21):
        for lam in enumerate_partitions(n):
            symbol = lam.frobenius()
            assert symbol == FrobeniusSymbol(symbol.legs, symbol.arms)
            assert symbol.to_partition() == Partition(lam.parts) == lam
            assert type(symbol.to_partition()) is Partition
