"""Core/quotient/cocore decompositions of bar-partitions and of ordinary
partitions, plus the pairing of parts (resp. diagonal hooks) on cocores.

One engine serves both kinds.  A runner is a pair of descending int tuples
(black_above, white_below), as in abacus.py, and shifting it is one
translation of its beads (partitions._shift).  The engine needs nothing else
of the abacus view, so a decomposition does not load abacus.py.  A layout
says how the numbers of a label lie on the fenced runners j = 0, 1, ... of
modulus m: runner j holds m*x + j + head at above slot x and m*x + m-1-j at
below slot x.

* bar, odd t, head 1: the numbers are the parts, as on the twisted t-abacus;
  the parts t*x lie on its unfenced runner 0, read off directly as the
  first, strict quotient component.
* ordinary, odd p, head 0: the numbers are the arms (above) and legs
  (below) of the Frobenius symbol, so conjugation is the runner reflection
  j <-> p-1-j.

A decomposition buckets the numbers of a label by residue and visits only
the runners that hold a bead.  An empty runner has charnum 0 and the empty
quotient component (the characteristic-vector view of cores: F. Garvan,
D. Kim and D. Stanton, "Cranks and t-cores", Invent. Math. 101, 1990), so
it costs nothing beyond its entries in the dense charvec and quotient.  Each
occupied runner is normalized by the shift of minus its charnum, once per
distinct runner (``_normalized``, shared by both layouts).  The shifts form
the characteristic vector, whose reference runners give the core, built once
per vector from its nonzero entries (``_core``); the pointed runners give the
quotient and the cocore, whose numbers are collected in one pass and sorted
once per list (``_label_parts``: one list for bar, arms and legs for
ordinary).
d counts the beads whose numbers vanish when the shifts are reapplied, which
makes ``length == core.length + cocore.length - 2*d`` exact (for a
self-conjugate partition, the same identity of Durfee sizes).  The runners
counted for d are those whose beads pair up on a cocore: all runners for bar,
one of each pair {j, p-1-j} for ordinary.

Blocks run the engine backwards.  ``_members`` lists the labels with a given
core and weight by reconstructing every quotient of that weight, from one
list of the partitions of each size, each component placed on a runner of a
given charnum once (``_placed``); given a score of the component shapes, it
also adds it up over each label's quotient (the heights of the blocks
listing, blocks._listed).  ``_cores`` lists the cores of both
kinds, t-bar cores and self-conjugate p-cores, as the cores of the
characteristic vectors within a size budget.  ``_rebuilt`` places a quotient
on the runners of a core's characteristic vector, for ``_reconstruct`` and
core replacement (blocks.psi).  Engine labels are built unchecked
(``partitions._trusted``).  The moduli are odd integers >= 3, not only primes.

The memos keyed by a core or a block are unbounded.  ``_decompose``, keyed
by a label, is a bounded LRU, and so are ``_normalized`` and ``_placed``: at
modulus 3 a label has one fenced runner, so a runner or a placed component
can be as many as the labels.  A sweep then holds the work in hand, not
every label it saw.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from functools import lru_cache
from itertools import compress, count

from .partitions import (
    BarPartition, Partition, _as, _frobenius, _from_frobenius, _gen, _odd_modulus, _Record, _shift,
    _trusted,
)


class _Decomposition(_Record):
    """A decomposition: core, quotient, characteristic vector, weight, cocore
    and d."""

    __slots__ = ("core", "quotient", "charvec", "weight", "cocore", "d")

    def __init__(self, core: Partition, quotient: tuple[Partition, ...], charvec: tuple[int, ...],
                 weight: int, cocore: Partition, d: int):
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "quotient", quotient)
        object.__setattr__(self, "charvec", charvec)
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "cocore", cocore)
        object.__setattr__(self, "d", d)


class BarLittlewood(_Decomposition):
    """Decomposition record of a bar-partition for an odd t."""

    __slots__ = ()


class OrdinaryLittlewood(_Decomposition):
    """Decomposition record of an ordinary partition for an odd p."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# the engine


# record, label: the classes of a decomposition and of a label; modulus: the
# rule on m, for error messages; head: quotient components, and residues, read
# off directly; width(m): runners at modulus m; counted(m): runners
# 0..counted-1 count toward d and pair up; numbers(parts) -> the numbers of
# the above beads and runner 0, then any others of the below beads; folded:
# the above and below numbers are one sequence; parts(above, below) the
# inverse of numbers, on descending lists; pair(x): the printed form of a
# paired number.
_Layout = namedtuple("_Layout", "record label modulus head width counted numbers folded parts pair")


_BAR = _Layout(
    record=BarLittlewood,
    label=BarPartition,
    modulus="t must be an odd integer >= 3",
    head=1,
    width=lambda t: (t - 1) // 2,
    counted=lambda t: (t - 1) // 2,
    numbers=lambda parts: (parts,),
    folded=True,
    parts=lambda above, below: tuple(above),
    pair=lambda x: x,
)
_ORDINARY = _Layout(
    record=OrdinaryLittlewood,
    label=Partition,
    modulus="p must be an odd integer >= 3",
    head=0,
    width=lambda p: p,
    counted=lambda p: (p + 1) // 2,
    numbers=_frobenius,
    folded=False,
    parts=_from_frobenius,
    pair=lambda x: 2 * x + 1,
)

_EMPTY = _trusted(Partition, ())  # the quotient component of every empty runner


def _checked(layout: _Layout, lam, m: int) -> tuple[tuple[int, ...], int]:
    """The parts of a label and its modulus, validated at the public boundary."""
    return _as(layout.label, lam).parts, _odd_modulus(m, layout.modulus)


def _runners(layout: _Layout, parts: tuple[int, ...], m: int):
    """Runner-0 slots and the occupied fenced runners of a label, as
    {j: (above, below)}: x lies at slot x // m of residue x % m, bucketed by
    residue, and every other runner is empty."""
    head, width = layout.head, layout.width(m)
    residues = []
    for numbers in layout.numbers(parts):
        slots = {}
        for x in numbers:  # descending numbers give descending slots
            slots.setdefault(x % m, []).append(x // m)
        residues.append(slots)
    above, below = residues[0], residues[-1]
    runners = {}
    for r, xs in above.items():
        j = r - head
        if 0 <= j < width:
            runners[j] = (tuple(xs), tuple(below.get(m - 1 - j, ())))
    for r, ys in below.items():
        j = m - 1 - r
        if j < width and j not in runners:
            runners[j] = ((), tuple(ys))
    return tuple(above.get(0, ())) if head else (), runners


def _label_parts(layout: _Layout, runner0, runners: list, m: int) -> tuple[int, ...]:
    """Inverse of _runners: the parts of the label with these runner-0 slots
    and these runners (j, (above, below)), every other runner empty.  Each
    list of numbers is sorted once."""
    head = layout.head
    above = [m * x for x in runner0]
    above += [m * x + j + head for j, (a, _) in runners for x in a]
    below = above if layout.folded else []
    below += [m * y + m - 1 - j for j, (_, b) in runners for y in b]
    above.sort(reverse=True)
    if below is not above:
        below.sort(reverse=True)
    return layout.parts(above, below)


@lru_cache(maxsize=2048)
def _normalized(runner: tuple) -> tuple:
    """(c, pointed runner, quotient component, its size, d-count) of a runner:
    its charnum c, its shift by -c, the Frobenius reading of that shift, and
    how many beads of the shift have numbers that vanish when c is reapplied."""
    c = len(runner[0]) - len(runner[1])
    pointed = _shift(*runner, -c) if c else runner  # the shift by 0 is the runner itself
    d = sum(1 for x in pointed[c > 0] if x < abs(c))
    component = _from_frobenius(*pointed)
    return c, pointed, _trusted(Partition, component), sum(component), d


@lru_cache(maxsize=None)
def _core(layout: _Layout, charvec: tuple[int, ...], m: int):
    """The label whose runners are the reference runners of charvec, built
    from its nonzero entries."""
    runners = [(j, _shift((), (), charvec[j])) for j in compress(count(), charvec)]
    return _trusted(layout.label, _label_parts(layout, (), runners, m))


@lru_cache(maxsize=2048)
def _placed(parts: tuple[int, ...], c: int) -> tuple:
    """The runner of charnum c whose pointed runner reads as parts."""
    return _shift(*_frobenius(parts), c)


@lru_cache(maxsize=4096)
def _decompose(layout: _Layout, parts: tuple[int, ...], m: int):
    """The record of a label, from its occupied runners only: an empty runner
    has charnum 0 and the empty quotient component."""
    runner0, runners = _runners(layout, parts, m)
    width, counted = layout.width(m), layout.counted(m)
    charvec, quotient, pointed = [0] * width, [_EMPTY] * width, []
    weight, d = sum(runner0), 0
    for j, runner in runners.items():
        c, shifted, component, size, beads = _normalized(runner)
        charvec[j], quotient[j] = c, component
        pointed.append((j, shifted))
        weight += size
        if j < counted:
            d += beads
    charvec = tuple(charvec)
    cocore = _trusted(layout.label, _label_parts(layout, runner0, pointed, m))
    quotient = (_trusted(BarPartition, runner0),) * layout.head + tuple(quotient)
    return layout.record(_core(layout, charvec, m), quotient, charvec, weight, cocore, d)


def _reconstruct(layout: _Layout, core, quotient, m: int):
    core = _as(layout.label, core)
    quotient = tuple(_as(Partition, q) for q in quotient)
    components = layout.head + layout.width(m)
    if len(quotient) != components:
        raise ValueError(f"quotient needs {components} components, got {len(quotient)}")
    dec = _decompose(layout, *_checked(layout, core, m))
    if dec.weight != 0:
        raise ValueError(f"{core!r} is not a {m}-core")
    if layout.head:
        BarPartition(quotient[0].parts)  # the head component must be strict
    return _rebuilt(layout, quotient, dec.charvec, m)


def _rebuilt(layout: _Layout, quotient: tuple, charvec: tuple[int, ...], m: int):
    """The label with this quotient over the core of characteristic vector
    charvec, unchecked: the caller holds a valid quotient and a core's charvec."""
    runner0 = quotient[0].parts if layout.head else ()
    components = enumerate(zip(charvec, quotient[layout.head:]))
    runners = [(j, _placed(q.parts, c)) for j, (c, q) in components if c or q]
    return _trusted(layout.label, _label_parts(layout, runner0, runners, m))


def _depth_first(count: int, choices, budget: int):
    """Every way to pick one value at each of the positions 0..count-1
    (count >= 1), in depth-first order, with the budget left after the
    picks: choices(k, left) lists the (budget left after, value) pairs open
    at position k.  Yields (picked, left), where picked is one list that the
    walk goes on to change.  Iterative, so count is not bounded by the
    recursion limit."""
    picked = []
    stack = [iter(choices(0, budget))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if picked:
                picked.pop()
            continue
        picked.append(step[1])
        if len(stack) == count:
            yield picked, step[0]
            picked.pop()
        else:
            stack.append(iter(choices(len(stack), step[0])))


@lru_cache(maxsize=None)
def _members(layout: _Layout, core: tuple[int, ...], m: int, w: int, score=None) -> tuple:
    """Every label with the m-core ``core`` (validated by the caller) and
    weight w, in ascending order of parts: the reconstruction of every
    quotient of total weight w, whose head component is strict.  Given a
    score, the pair (labels, sums) instead: score(parts, m, strict) is taken
    once per component shape (strict for the head), and sums[i] adds it up
    over the quotient of labels[i]."""
    charvec = _decompose(layout, core, m).charvec
    scored = score or (lambda parts, m, strict: 0)
    # shapes[s]: each partition of size s with its score
    shapes = [[(parts, scored(parts, m, False)) for parts in _gen(s, s, 0, 1)] for s in range(w + 1)]
    # columns[k][s]: the (value, score) picks of component k at size s, the
    # value as runner-0 slots for the head and as (j, shifted runner) for the
    # fenced runners
    columns = [
        [[((j, _placed(parts, c)), x) for parts, x in shape] for shape in shapes] for j, c in enumerate(charvec)
    ]
    if layout.head:
        columns.insert(0, [[(parts, scored(parts, m, True)) for parts in _gen(s, s, 1, 1)] for s in range(w + 1)])
    # choices[k][left]: the (left after, pick) pairs open to component k;
    # the last component takes exactly the weight that is left
    choices = [
        [[(left - s, pick) for s in range(left + 1) for pick in column[s]]
         for left in range(w + 1)]
        for column in columns[:-1]
    ]
    choices.append([[(0, pick) for pick in column] for column in columns[-1]])
    labels, sums = [], []
    for picked, _ in _depth_first(len(columns), lambda k, left: choices[k][left], w):
        values, xs = zip(*picked)
        runner0 = values[0] if layout.head else ()
        labels.append(_trusted(layout.label, _label_parts(layout, runner0, values[layout.head:], m)))
        sums.append(sum(xs))
    order = sorted(range(len(labels)), key=[lam.parts for lam in labels].__getitem__)
    labels = tuple(map(labels.__getitem__, order))
    return (labels, tuple(map(sums.__getitem__, order))) if score else labels


def _cores(layout: _Layout, m: int, max_size: int) -> tuple:
    """Every m-bar core (bar layout) or self-conjugate m-core (ordinary
    layout) of size at most max_size, by size then descending: the cores of
    the characteristic vectors c within the size budget.  Runner pair j of
    residue r holds |c_j| beads on r, or on t-r when c_j < 0, and costs
    |c_j| * (r or t-r) + t * |c_j| * (|c_j| - 1) / 2.  Bar cores have t = m
    and r = j+1.  A self-conjugate core has c = (c_0, ..., c_{(m-3)/2}, 0,
    -c_{(m-3)/2}, ..., -c_0), and its diagonal hooks 2(m*x + j) + 1 give
    t = 2m and r = 2j+1."""
    _checked(layout, (), m)  # the modulus check of the decomposition
    t, residues = (m, range(1, m // 2 + 1)) if layout.head else (2 * m, range(1, m - 1, 2))
    options = []
    for r in residues:
        runner = [(0, 0)]
        for sign, residue in ((1, r), (-1, t - r)):
            k = 1
            while k * residue + t * k * (k - 1) // 2 <= max_size:
                runner.append((sign * k, k * residue + t * k * (k - 1) // 2))
                k += 1
        options.append(runner)

    def choices(j, left):
        return [(left - size, c) for c, size in options[j] if size <= left]

    cores = []
    for charvec, _ in _depth_first(len(options), choices, max_size):
        if not layout.head:
            charvec = charvec + [0] + [-c for c in reversed(charvec)]
        cores.append(_core(layout, tuple(charvec), m))
    cores.sort(reverse=True)
    return tuple(sorted(cores, key=lambda kappa: kappa.size))


def _pairs(layout: _Layout, lam, m: int) -> tuple[tuple[int, int], ...]:
    """A label is a cocore when every runner is pointed (its core is empty);
    then each runner pairs its i-th largest above and below numbers."""
    _, runners = _runners(layout, *_checked(layout, lam, m))
    if any(len(above) != len(below) for above, below in runners.values()):
        raise ValueError(f"{lam!r} is not a {m}-cocore")
    pair, counted = layout.pair, layout.counted(m)
    return tuple(sorted(
        (pair(m * x + j + layout.head), pair(m * y + m - 1 - j))
        for j, (above, below) in runners.items() if j < counted
        for x, y in zip(above, below)
    ))


# ---------------------------------------------------------------------------
# bar-partitions


def bar_decompose(lam: BarPartition, t: int) -> BarLittlewood:
    """Decompose a strict partition into t-core, t-quotient and t-cocore."""
    return _decompose(_BAR, *_checked(_BAR, lam, t))


def bar_reconstruct(core: BarPartition, quotient: Sequence[Partition], t: int) -> BarPartition:
    """Inverse of bar_decompose: rebuild the partition with the given core
    and quotient."""
    return _reconstruct(_BAR, core, quotient, t)


def paired_parts(lam: BarPartition, p: int) -> tuple[tuple[int, int], ...]:
    """Match the parts of a p-cocore across residue pairs (r, p-r).

    The i-th largest arm of quotient component r is paired with its i-th
    largest leg; read back on the plain abacus these are parts of sizes
    p*x + r and p*x* + (p-r), whose sum is divisible by p.  Every part with
    nonzero residue lies in exactly one pair.
    """
    return _pairs(_BAR, lam, p)


# ---------------------------------------------------------------------------
# ordinary partitions


def ordinary_decompose(lam: Partition, p: int) -> OrdinaryLittlewood:
    """p-core/p-quotient/p-cocore of an ordinary partition, p an odd
    integer >= 3."""
    return _decompose(_ORDINARY, *_checked(_ORDINARY, lam, p))


def ordinary_reconstruct(core: Partition, quotient: Sequence[Partition], p: int) -> Partition:
    return _reconstruct(_ORDINARY, core, quotient, p)


def selfconjugate_paired_hooks(lam: Partition, p: int) -> tuple[tuple[int, int], ...]:
    """Pair the diagonal hooks of a self-conjugate p-cocore across runners
    j and p-1-j; each pair sums to a multiple of 2p.  Hooks on the middle
    runner pair with themselves."""
    lam = _as(Partition, lam)
    if not lam.is_self_conjugate():  # refused before _pairs checks p; the CLI relies on this order
        raise ValueError(f"{lam!r} is not self-conjugate")
    return _pairs(_ORDINARY, lam, p)
