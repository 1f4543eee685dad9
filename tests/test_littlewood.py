import ast
import hashlib
import json
from itertools import zip_longest
from pathlib import Path
from time import perf_counter

import pytest

from barblocks import littlewood, partitions
from barblocks.littlewood import (
    BarLittlewood,
    OrdinaryLittlewood,
    bar_decompose,
    bar_reconstruct,
    ordinary_decompose,
    ordinary_reconstruct,
    paired_parts,
    selfconjugate_paired_hooks,
)
from barblocks.partitions import (
    BarPartition, Partition, _frobenius, _from_frobenius, _shift, enumerate_partitions,
)
from oracles import bar_core_by_removal, diagonal_hooks, p_core_by_hook_removal


def strict_upto(bound):
    for n in range(bound + 1):
        yield from enumerate_partitions(n, "strict")


def test_decompose_t5_cocore_example():
    dec = bar_decompose(BarPartition([14, 12, 8, 6, 3, 2]), 5)
    assert dec.core == BarPartition()
    assert dec.charvec == (0, 0)
    assert dec.quotient == (BarPartition(), Partition([2, 1, 1]), Partition([3, 2]))
    assert dec.weight == 9
    assert dec.cocore == BarPartition([14, 12, 8, 6, 3, 2])
    assert dec.d == 0


def test_decompose_4321_t3():
    dec = bar_decompose(BarPartition([4, 3, 2, 1]), 3)
    assert dec.core == BarPartition([1])
    assert dec.charvec == (1,)
    assert dec.quotient == (BarPartition([1]), Partition([1, 1]))
    assert dec.weight == 3
    assert dec.cocore == BarPartition([5, 3, 1])
    assert dec.d == 0


def test_decompose_core_fixed_point():
    for core in [BarPartition(), BarPartition([1]), BarPartition([2]), BarPartition([5, 2])]:
        dec = bar_decompose(core, 3)
        assert dec.weight == 0
        assert dec.core == core
        assert all(not q for q in dec.quotient)
        assert dec.cocore == BarPartition()
        assert dec.d == 0


def test_decompose_rejects_even_t():
    with pytest.raises(ValueError):
        bar_decompose(BarPartition([2, 1]), 4)
    with pytest.raises(ValueError):
        bar_decompose(BarPartition([2, 1]), 1)


def test_reconstruct_examples():
    quotient = (BarPartition(), Partition([2, 1, 1]), Partition([3, 2]))
    assert bar_reconstruct(BarPartition(), quotient, 5) == BarPartition([14, 12, 8, 6, 3, 2])
    assert bar_reconstruct(BarPartition([1]), (BarPartition([1]), Partition([2])), 3) == BarPartition([7, 3])
    core = BarPartition([2])
    assert bar_reconstruct(core, (BarPartition(), Partition()), 3) == core


def test_reconstruct_rejects_bad_input():
    with pytest.raises(ValueError):
        bar_reconstruct(BarPartition([3]), (BarPartition(), Partition()), 3)  # not a core
    with pytest.raises(ValueError):
        bar_reconstruct(BarPartition([1]), (BarPartition(),), 3)  # wrong arity
    with pytest.raises(ValueError):
        bar_reconstruct(BarPartition([1]), (Partition([1, 1]), Partition()), 3)  # q0 not strict


def test_round_trip_and_size_additivity():
    for lam in strict_upto(40):
        for t in (3, 5, 7):
            dec = bar_decompose(lam, t)
            assert bar_reconstruct(dec.core, dec.quotient, t) == lam
            assert lam.size == dec.core.size + t * dec.weight
            assert dec.weight == sum(q.size for q in dec.quotient)


def test_core_matches_removal_oracle():
    for lam in strict_upto(22):
        for p in (3, 5):
            assert bar_decompose(lam, p).core == bar_core_by_removal(lam, p)


def test_length_and_sign_identities():
    for lam in strict_upto(24):
        for p in (3, 5, 7):
            dec = bar_decompose(lam, p)
            assert lam.length == dec.core.length + dec.cocore.length - 2 * dec.d
            assert lam.sign() == dec.core.sign() * dec.cocore.sign()


def test_cocore_properties():
    assert bar_decompose(BarPartition([4, 3, 2, 1]), 3).cocore == BarPartition([5, 3, 1])
    assert bar_decompose(BarPartition([2, 1]), 3).cocore == BarPartition([2, 1])
    for lam in strict_upto(18):
        for p in (3, 5):
            cocore = bar_decompose(lam, p).cocore
            dec = bar_decompose(cocore, p)
            assert not dec.core
            assert dec.quotient == bar_decompose(lam, p).quotient
            assert dec.cocore == cocore
            assert cocore.size == p * bar_decompose(lam, p).weight


def test_nonzero_d_case():
    dec = bar_decompose(BarPartition([4]), 3)
    assert dec.core == BarPartition([1])
    assert dec.cocore == BarPartition([2, 1])
    assert dec.d == 1
    assert BarPartition([4]).length == 1 + 2 - 2 * dec.d


def test_paired_parts_example():
    pairs = paired_parts(BarPartition([14, 12, 8, 6, 3, 2]), 5)
    assert set(pairs) == {(6, 14), (2, 3), (12, 8)}


def test_paired_parts_properties():
    for lam in strict_upto(22):
        for p in (3, 5):
            if bar_decompose(lam, p).core:
                with pytest.raises(ValueError):
                    paired_parts(lam, p)
                continue
            pairs = paired_parts(lam, p)
            covered = sorted(x for pair in pairs for x in pair)
            assert covered == sorted(x for x in lam if x % p)
            for a, b in pairs:
                assert (a + b) % p == 0


def test_paired_parts_empty_quotient():
    assert paired_parts(BarPartition(), 5) == ()
    assert paired_parts(BarPartition([5]), 5) == ()  # single runner-0 part


# ---------------------------------------------------------------------------
# ordinary partitions


def all_upto(bound):
    for n in range(bound + 1):
        yield from enumerate_partitions(n)


def test_ordinary_core_matches_hook_removal():
    for lam in all_upto(20):
        for p in (3, 5):
            assert ordinary_decompose(lam, p).core == p_core_by_hook_removal(lam, p)


@pytest.mark.parametrize("m", [9, 15, 21])
def test_cores_at_odd_composite_moduli_match_the_oracles(m):
    """The engine needs an odd modulus, not a prime one: its cores agree
    with the removal oracles at composite m too."""
    for lam in strict_upto(20):
        assert bar_decompose(lam, m).core == bar_core_by_removal(lam, m)
    for lam in all_upto(16):
        assert ordinary_decompose(lam, m).core == p_core_by_hook_removal(lam, m)


def test_ordinary_modulus_refusal_states_the_rule():
    for m in (4, 1, -5):
        with pytest.raises(ValueError, match=f"^p must be an odd integer >= 3, got {m}$"):
            ordinary_decompose(Partition([2, 1]), m)


def test_oracles_do_not_call_the_engine():
    """tests/oracles.py is an independent route: of the library it may use
    the partition classes only."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert {name for name in imported if "barblocks" in name or name.startswith(".")} == {
        "barblocks.partitions"
    }


def test_ordinary_core_fixed_point():
    lam = Partition([3, 1, 1])  # a self-conjugate 3-core
    dec = ordinary_decompose(lam, 3)
    assert dec.core == lam
    assert dec.weight == 0
    assert dec.cocore == Partition()
    assert dec.d == 0


def test_ordinary_round_trip_and_sizes():
    for lam in all_upto(16):
        for p in (3, 5):
            dec = ordinary_decompose(lam, p)
            assert ordinary_reconstruct(dec.core, dec.quotient, p) == lam
            assert lam.size == dec.core.size + p * dec.weight


def test_ordinary_reconstruct_rejects():
    with pytest.raises(ValueError):
        ordinary_reconstruct(Partition([3]), tuple(Partition() for _ in range(3)), 3)
    with pytest.raises(ValueError):
        ordinary_reconstruct(Partition([1]), (Partition(),), 3)


def test_selfconjugate_structure():
    for n in range(41):
        for lam in enumerate_partitions(n, "self_conjugate"):
            _check_selfconjugate_structure(lam)


def _check_selfconjugate_structure(lam):
    for p in (3, 5):
        dec = ordinary_decompose(lam, p)
        assert dec.core.is_self_conjugate()
        assert dec.cocore.is_self_conjugate()
        for j in range(p):
            assert dec.quotient[j] == dec.quotient[p - 1 - j].conjugate()
        assert lam.durfee() == dec.core.durfee() + dec.cocore.durfee() - 2 * dec.d


def test_selfconjugate_nonzero_d():
    dec = ordinary_decompose(Partition([4, 1, 1, 1]), 3)
    assert dec.core == Partition([1])
    assert dec.cocore == Partition([3, 2, 1])
    assert dec.d == 1


def test_selfconjugate_paired_hooks():
    for lam in all_upto(18):
        if not lam.is_self_conjugate():
            continue
        for p in (3, 5):
            if ordinary_decompose(lam, p).core:
                continue
            pairs = selfconjugate_paired_hooks(lam, p)
            hooks = sorted(diagonal_hooks(lam))
            seen = sorted({h for pair in pairs for h in pair})
            assert seen == sorted(set(hooks))
            for a, b in pairs:
                assert (a + b) % (2 * p) == 0


def test_selfconjugate_paired_hooks_rejects():
    with pytest.raises(ValueError):
        selfconjugate_paired_hooks(Partition([3, 1]), 3)  # not self-conjugate
    with pytest.raises(ValueError):
        selfconjugate_paired_hooks(Partition([3, 1, 1]), 3)  # a core, not a cocore


def test_json_record():
    dec = bar_decompose(BarPartition([4, 3, 2, 1]), 3)
    rec = dec.to_json()
    assert rec == {
        "core": [1],
        "quotient": [[1], [1, 1]],
        "charvec": [1],
        "weight": 3,
        "cocore": [5, 3, 1],
        "d": 0,
    }


def test_records_of_both_kinds_have_one_field_list_but_never_compare_equal():
    fields = ("core", "quotient", "charvec", "weight", "cocore", "d")
    bar = bar_decompose(BarPartition([2, 1]), 3)
    assert bar._fields == fields
    assert ordinary_decompose(Partition([2, 1]), 3)._fields == fields
    values = [getattr(bar, name) for name in fields]
    assert BarLittlewood(*values) == bar != OrdinaryLittlewood(*values)
    assert type(bar._replace(d=1)) is BarLittlewood
    with pytest.raises(AttributeError, match="cannot assign to field 'd'"):
        bar.d = 1


@pytest.mark.parametrize("decompose", [bar_decompose, ordinary_decompose])
def test_records_of_both_kinds_refuse_a_new_attribute(decompose):
    record = decompose([2, 1], 3)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert not hasattr(record, "extra")


# sha256 over the 4,562 records of _golden_records(), one JSON line each, read
# from the implementation that still had separate bar and ordinary code paths
GOLDEN_DIGEST = "be38f5e701510b378c030d47b842e6a1d1c2a7e36b4fb6a55f43aac0a9b0c0b8"


def _golden_records():
    """Every record the decomposition engine produces on a fixed exhaustive
    range: strict partitions up to 22 at odd t <= 11 (t = 9 is not prime),
    all partitions up to 14 at p <= 7, and the pairings of their cocores."""
    for t in (3, 5, 7, 9, 11):
        for lam in strict_upto(22):
            dec = bar_decompose(lam, t)
            yield ["bar", t, lam.to_json(), dec.to_json()]
            if not dec.core:
                yield ["pairs", t, lam.to_json(), paired_parts(lam, t)]
    for p in (3, 5, 7):
        for lam in all_upto(14):
            dec = ordinary_decompose(lam, p)
            yield ["ordinary", p, lam.to_json(), dec.to_json()]
            if not dec.core and lam.is_self_conjugate():
                yield ["hooks", p, lam.to_json(), selfconjugate_paired_hooks(lam, p)]


def test_golden_digest_of_records():
    digest, count = hashlib.sha256(), 0
    for rec in _golden_records():
        digest.update(json.dumps(rec).encode() + b"\n")
        count += 1
    assert (count, digest.hexdigest()) == (4562, GOLDEN_DIGEST)


def _clear_memos():
    for module in (littlewood, partitions):
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_the_shared_memos_do_not_depend_on_the_order_of_calls():
    """The bar and ordinary layouts share the per-runner memo: records built
    with bar and ordinary calls interleaved, then again from cleared memos in
    the reverse order, are the same, and their cores are the removal cores."""
    calls = []
    for p in (3, 5, 7, 13):
        bar = [(bar_decompose, lam, p) for lam in strict_upto(24)]
        ordinary = [(ordinary_decompose, lam, p) for lam in all_upto(14)]
        calls += [call for pair in zip_longest(bar, ordinary) for call in pair if call]

    def records(order):
        _clear_memos()
        return {(f, lam, p): f(lam, p).to_json() for f, lam, p in order}

    forward = records(calls)
    assert records(calls[::-1]) == forward
    oracle = {bar_decompose: bar_core_by_removal, ordinary_decompose: p_core_by_hook_removal}
    for (f, lam, p), record in forward.items():
        assert record["core"] == oracle[f](lam, p).to_json()


def _dense_record(parts, m, bar):
    """The JSON of a decomposition by the dense kernel the engine had before
    it visited only the occupied runners: every residue bucketed in a list of
    m, every runner shifted, every list of numbers sorted on its own.  No
    memo, so every label is decomposed from scratch."""
    head, width = (1, (m - 1) // 2) if bar else (0, m)
    counted = width if bar else (m + 1) // 2
    slots = []
    for numbers in (parts,) if bar else _frobenius(parts):
        residues = [[] for _ in range(m)]
        for x in numbers:
            residues[x % m].append(x // m)
        slots.append(residues)
    above, below = slots[0], slots[-1]
    runner0 = tuple(above[0]) if head else ()
    runners = [(tuple(above[j + head]), tuple(below[m - 1 - j])) for j in range(width)]

    def label(runner0, runners):
        arms = sorted((m * x + j + head for j, (xs, _) in enumerate(runners) for x in xs), reverse=True)
        legs = sorted((m * y + m - 1 - j for j, (_, ys) in enumerate(runners) for y in ys), reverse=True)
        if bar:
            return sorted([m * k for k in runner0] + arms + legs, reverse=True)
        return list(_from_frobenius(arms, legs))

    charvec, pointed, quotient, d = [], [], [], 0
    for j, runner in enumerate(runners):
        c = len(runner[0]) - len(runner[1])
        shifted = _shift(*runner, -c)
        charvec.append(c)
        pointed.append(shifted)
        quotient.append(list(_from_frobenius(*shifted)))
        if j < counted:
            d += sum(1 for x in shifted[c > 0] if x < abs(c))
    return {
        "core": label((), [_shift((), (), c) for c in charvec]),
        "quotient": [list(runner0)] * head + quotient,
        "charvec": charvec,
        "weight": sum(runner0) + sum(map(sum, quotient)),
        "cocore": label(runner0, pointed),
        "d": d,
    }


def test_the_dense_reference_reads_the_worked_examples():
    assert _dense_record((4, 3, 2, 1), 3, True) == bar_decompose(BarPartition([4, 3, 2, 1]), 3).to_json()
    assert _dense_record((14, 12, 8, 6, 3, 2), 5, True)["quotient"] == [[], [2, 1, 1], [3, 2]]
    assert _dense_record((4, 1, 1, 1), 3, False)["cocore"] == [3, 2, 1]


@pytest.mark.parametrize("t", [3, 5, 7, 13, 101])
def test_bar_records_equal_the_dense_kernel(t):
    """The engine visits only the occupied runners; its records are the
    dense kernel's on all strict |lambda| <= 30."""
    for lam in strict_upto(30):
        assert bar_decompose(lam, t).to_json() == _dense_record(lam.parts, t, True), lam


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ordinary_records_equal_the_dense_kernel(p):
    for lam in all_upto(20):
        assert ordinary_decompose(lam, p).to_json() == _dense_record(lam.parts, p, False), lam


def test_a_decomposition_at_a_large_modulus_touches_the_occupied_runners_only():
    """At t = 1,000,003 the two parts of [5, 1] occupy two of the 500,001
    runners; the record is still dense, but the rest costs no work per
    runner (1.87 s when every runner was visited)."""
    littlewood._decompose.cache_clear()
    littlewood._core.cache_clear()
    start = perf_counter()
    dec = bar_decompose([5, 1], 1000003)
    elapsed = perf_counter() - start
    assert (dec.core, dec.weight, dec.d, dec.cocore) == (BarPartition([5, 1]), 0, 0, BarPartition())
    assert {j: c for j, c in enumerate(dec.charvec) if c} == {0: 1, 4: 1}
    assert len(dec.quotient) == 500002 and not any(dec.quotient)
    assert elapsed < 1, elapsed
    littlewood._decompose.cache_clear()
    littlewood._core.cache_clear()
