"""Heights read off the quotients (the ``blocks`` listing, blocks._listed)
against heights read off hook lengths (the verify suites, blocks._heights_of).

The hooks of a label that p divides are p times the hooks of its quotient
components, bar hooks for the strict head of a bar quotient (Olsson 1993;
James and Kerber 1981, 2.7, for ordinary partitions).  So the sum of nu_p
over the hooks of a label of weight w is w + S, S the sum of
characters._hook_sum over its components, and that is all the listing needs.
"""

from math import prod

import pytest

from barblocks import blocks, characters
from barblocks.blocks import _blocks_of, _heights_of, _listed, _members_of, bar_cores
from barblocks.characters import _hook_sum, bar_hook_lengths, nu_p, nu_p_factorial, spin_degree_valuation
from barblocks.cli import main
from barblocks.littlewood import _BAR, _ORDINARY, _members, bar_decompose, ordinary_decompose
from barblocks.partitions import enumerate_partitions
from barblocks.suites import verify
from oracles import bar_multipartition_count, hook_lengths, multipartition_count

GROUPS = ("stilde", "atilde", "g", "gplus")


def _hooks_valuation(hooks, p: int) -> int:
    """The sum of nu_p over a full list of hook lengths."""
    return sum(nu_p(h, p) for h in hooks if h % p == 0)


def _quotient_sum(quotient, p: int, head: bool) -> int:
    """S: _hook_sum over the components, bar hooks for a strict head."""
    return sum(_hook_sum(q.parts, p, head and k == 0) for k, q in enumerate(quotient))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_hooks_that_p_divides_come_from_the_bar_quotient(p):
    """w + S equals the sum of nu_p over the full bar hook list, on every
    strict |lambda| <= 30."""
    for n in range(31):
        for lam in enumerate_partitions(n, "strict"):
            dec = bar_decompose(lam, p)
            assert dec.weight + _quotient_sum(dec.quotient, p, True) == _hooks_valuation(
                bar_hook_lengths(lam), p
            ), lam


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hooks_that_p_divides_come_from_the_quotient(p):
    """w + S equals the sum of nu_p over the full hook list, on every
    |lambda| <= 20."""
    for n in range(21):
        for lam in enumerate_partitions(n):
            dec = ordinary_decompose(lam, p)
            assert dec.weight + _quotient_sum(dec.quotient, p, False) == _hooks_valuation(
                hook_lengths(lam), p
            ), lam


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_a_bar_core_has_no_bar_hook_that_p_divides(p):
    """So the core of a G/G+ label adds nu_p(|kappa|!) to every member's
    valuation and nothing to its height: checked on the strict partitions of
    size <= 30, whose weight is 0 exactly when no bar hook is a multiple of
    p, and on every p-bar core of size <= 120."""
    for n in range(31):
        for lam in enumerate_partitions(n, "strict"):
            divided = any(h % p == 0 for h in bar_hook_lengths(lam))
            assert divided == (bar_decompose(lam, p).weight > 0), lam
    cores = bar_cores(p, 120)
    assert len(cores) > 10
    for kappa in cores:
        assert spin_degree_valuation(kappa, p) == nu_p_factorial(kappa.size, p), kappa


def _rows(block) -> tuple:
    defect, rows = _listed(block)
    return defect, list(rows)


def _hook_rows(block) -> tuple:
    members = _members_of(block)
    defect, heights = _heights_of(block, members)
    return defect, [(label, heights[label]) for label in members]


@pytest.mark.parametrize("group", GROUPS)
def test_listed_heights_equal_the_hook_route(group):
    """Every block of degree n <= 30 at p = 3, 5, 7: the same members in the
    same order, the same defect and the same heights."""
    blocks_seen = 0
    for p in (3, 5, 7):
        for n in range(31):
            for block in _blocks_of(n, p, group):
                assert _rows(block) == _hook_rows(block), block
                blocks_seen += 1
    assert blocks_seen > 100


def _digits(n: int, p: int) -> list[int]:
    out = []
    while n:
        n, a = divmod(n, p)
        out.append(a)
    return out


@pytest.mark.parametrize(
    "layout, kind, decompose, count, w_max",
    [
        (_BAR, "strict", bar_decompose, bar_multipartition_count, 20),
        (_ORDINARY, "all", ordinary_decompose, multipartition_count, 12),
    ],
    ids=["bar", "ordinary"],
)
def test_height_zero_counts_read_off_the_quotients(layout, kind, decompose, count, w_max):
    """The members of height zero (largest S) of each block (kappa, w) at
    p = 3 number prod_i k(p**(i+1), w_i), kbar for bar blocks, with w = sum
    w_i p**i in base p (see test_characters.test_height_zero_count_of_each_block,
    which reads hook lengths up to w = 8): here up to w = 20 for bar blocks
    (7,336 members at w = 20) and w = 12 for ordinary ones, over the empty
    core and the two smallest nonempty ones."""
    p = 3
    cores = [k for n in range(5) for k in enumerate_partitions(n, kind) if not decompose(k, p).weight][:3]
    assert len(cores) == 3
    for kappa in cores:
        for w in range(w_max + 1):
            _, sums = _members.__wrapped__(layout, kappa.parts, p, w, _hook_sum)
            want = prod(count(p ** (i + 1), w_i) for i, w_i in enumerate(_digits(w, p)))
            assert sums.count(max(sums)) == want, (kappa, w)


def test_the_listing_reads_no_hook_valuation_and_the_suites_do(monkeypatch, capsys):
    """The listing never computes the hook valuation of a whole label: with
    characters._valuation refused and the hook-route heights doctored, its
    text and JSON are unchanged, while the psi witnesses follow the doctored
    heights."""

    def listings():
        out = []
        for group in GROUPS:
            for json in ((), ("--json",)):
                assert main(["blocks", "--p", "3", "--n", "15", "--group", group, *json]) == 0
                out.append(capsys.readouterr().out)
        return out

    before = listings()
    assert verify("psi", 3, 4, w_max=1).passed
    real = blocks.height_and_defect

    def doctored(members, n, p):  # every height raised but at degree 3, where psi starts
        defect, heights = real(members, n, p)
        return (defect, {label: h + 1 for label, h in heights.items()}) if n != 3 else (defect, heights)

    def refused(*args):
        raise AssertionError("the listing computed the hook valuation of a label")

    monkeypatch.setattr(blocks, "height_and_defect", doctored)
    monkeypatch.setattr(blocks, "g_height_and_defect", refused)
    with monkeypatch.context() as patched:
        patched.setattr(characters, "_valuation", refused)
        assert listings() == before
    report = verify("psi", 3, 4, w_max=1)
    assert report.violations and all("image_height" in v for v in report.violations)

