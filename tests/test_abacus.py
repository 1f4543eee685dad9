from itertools import product

import pytest

from barblocks.abacus import (
    _CHUNK,
    BLACK,
    WHITE,
    BarAbacus,
    FencedRunner,
    TwistedBarAbacus,
    _lines,
    render,
)
from barblocks.littlewood import _normalized
from barblocks.partitions import BarPartition, Partition, _shift, enumerate_partitions
from oracles import pull_up, push_down


def _validated(record):
    """The record rebuilt through its validating constructor."""
    if isinstance(record, BarAbacus):
        return BarAbacus(record.t, record.runners)
    shifted = tuple(FencedRunner(fr.black_above, fr.white_below) for fr in record.shifted)
    return TwistedBarAbacus(record.t, record.runner0, shifted)


def test_bar_abacus_example_t3():
    ab = BarAbacus.from_partition(BarPartition([5, 3, 2, 1]), 3)
    assert ab.runners == (frozenset({1}), frozenset({0}), frozenset({0, 1}))
    assert ab.to_partition() == BarPartition([5, 3, 2, 1])


def test_bar_abacus_example_t5():
    ab = BarAbacus.from_partition(BarPartition([14, 12, 8, 6, 3, 2]), 5)
    assert ab.runners == (
        frozenset(),
        frozenset({1}),
        frozenset({0, 2}),
        frozenset({0, 1}),
        frozenset({2}),
    )


def test_bar_abacus_empty():
    ab = BarAbacus.from_partition(BarPartition(), 5)
    assert all(not r for r in ab.runners)
    assert ab.to_partition() == BarPartition()


@pytest.mark.parametrize("t", [2, 4, 1, 0, -3])
def test_bar_abacus_rejects_bad_t(t):
    with pytest.raises(ValueError):
        BarAbacus.from_partition(BarPartition([2, 1]), t)


def test_bar_abacus_refuses_repeated_parts():
    # two equal parts would land on one slot and one of them would be lost
    with pytest.raises(ValueError, match="parts must be strictly decreasing"):
        BarAbacus.from_partition(Partition([3, 3]), 3)
    assert BarAbacus.from_partition(Partition([3, 1]), 3).to_partition() == BarPartition([3, 1])


def test_twist_example():
    twisted = BarAbacus.from_partition(BarPartition([5, 3, 2, 1]), 3).twist()
    assert twisted.runner0 == frozenset({1})
    assert twisted.shifted == (FencedRunner({0}, {0, 1}),)
    assert twisted.untwist().to_partition() == BarPartition([5, 3, 2, 1])


def test_untwist_printed_t5_example():
    twisted = TwistedBarAbacus(
        5,
        frozenset({1}),
        (FencedRunner({1}, {0}), FencedRunner(frozenset(), {1})),
    )
    assert twisted.to_partition() == BarPartition([8, 6, 5, 4])


def test_twist_empty_is_default():
    twisted = BarAbacus.from_partition(BarPartition(), 3).twist()
    assert not twisted.runner0
    assert all(fr == FencedRunner() for fr in twisted.shifted)


def test_twist_round_trip():
    for n in range(22):
        for lam in enumerate_partitions(n, "strict"):
            for t in (3, 5, 7):
                ab = BarAbacus.from_partition(lam, t)
                assert ab.twist().untwist() == ab
                assert ab.to_partition() == lam


def test_reference_runner():
    """The reference runner of m is the default runner shifted by m."""
    assert FencedRunner().shift(1) == FencedRunner({0}, frozenset())
    assert FencedRunner().shift(-1) == FencedRunner(frozenset(), {0})
    assert FencedRunner().shift(0) == FencedRunner()
    assert FencedRunner().shift(3) == FencedRunner({0, 1, 2}, frozenset())


def test_reference_runner_normalizes_to_default():
    for m in range(-5, 6):
        pointed, c = FencedRunner().shift(m).normalize()
        assert pointed == FencedRunner()
        assert c == m


def test_normalize_shifted_runner_of_4321():
    runner = FencedRunner({0, 1}, {0})
    pointed, c = runner.normalize()
    assert c == 1
    assert pointed == FencedRunner({0}, {1})
    assert pointed.shift(c) == runner


def test_normalize_core_one_runner():
    pointed, c = FencedRunner({0}, frozenset()).normalize()
    assert (pointed, c) == (FencedRunner(), 1)


def test_normalize_idempotent_and_pointed():
    samples = [
        FencedRunner({0, 3}, {1}),
        FencedRunner(frozenset(), {0, 2, 5}),
        FencedRunner({1, 2}, {0, 4}),
        FencedRunner(),
    ]
    for runner in samples:
        pointed, c = runner.normalize()
        assert pointed.is_pointed
        assert c == runner.charnum
        again, c2 = pointed.normalize()
        assert (again, c2) == (pointed, 0)


# every runner with beads among the first four slots on each side, as slot sets
_SLOTS = [frozenset(x for x in range(4) if bits >> x & 1) for bits in range(16)]
_RUNNERS = list(product(_SLOTS, _SLOTS))


def test_push_pull_are_inverse():
    for runner in _RUNNERS:
        assert pull_up(*push_down(*runner)) == runner
        assert push_down(*pull_up(*runner)) == runner
        assert FencedRunner(*runner).shift(3).shift(-3) == FencedRunner(*runner)


def _descending(slots: tuple) -> bool:
    return all(a > b for a, b in zip(slots, slots[1:]))


def test_closed_form_shift_equals_single_steps():
    """partitions._shift, littlewood._normalized and FencedRunner.shift
    against c single steps of the reference, for every c in -6..6."""
    for above, below in _RUNNERS:
        steps = {0: (above, below)}
        for c in range(1, 7):
            steps[c] = pull_up(*steps[c - 1])
            steps[-c] = push_down(*steps[1 - c])
        runner = (tuple(sorted(above, reverse=True)), tuple(sorted(below, reverse=True)))
        for c, stepped in steps.items():
            shifted = _shift(*runner, c)
            assert tuple(map(frozenset, shifted)) == stepped
            assert all(map(_descending, shifted))
            assert FencedRunner(above, below).shift(c) == FencedRunner(*stepped)
        c, pointed, *_ = _normalized.__wrapped__(runner)
        assert c == len(above) - len(below)
        assert len(pointed[0]) == len(pointed[1])
        assert tuple(map(frozenset, pointed)) == steps[-c]
        assert _shift(*pointed, c) == runner


def test_pointed_runner_partition_round_trip():
    for n in range(12):
        for lam in enumerate_partitions(n):
            runner = FencedRunner.from_partition(lam)
            assert runner.is_pointed
            assert runner.to_partition() == lam


def test_to_partition_requires_pointed():
    with pytest.raises(ValueError):
        FencedRunner({0}, frozenset()).to_partition()


def test_runner0_slot0_excluded():
    with pytest.raises(ValueError):
        BarAbacus(3, (frozenset({0}), frozenset(), frozenset()))
    with pytest.raises(ValueError):
        TwistedBarAbacus(3, frozenset({0}), (FencedRunner(),))


def test_json_round_trip():
    ab = BarAbacus.from_partition(BarPartition([14, 12, 8, 6, 3, 2]), 5)
    assert ab.to_json() == {"t": 5, "runners": [[], [1], [0, 2], [0, 1], [2]]}
    tw = ab.twist()
    assert tw.to_json() == {
        "t": 5,
        "runner0": [],
        "shifted": [{"above": [1], "below": [2]}, {"above": [0, 2], "below": [0, 1]}],
    }


GOLDEN_EMPTY_T3 = "○ ○ ○\n0 1 2"

GOLDEN_5321_T3 = "● ○ ●\n○ ● ●\n0 1 2"

GOLDEN_5321_T3_TWISTED = (
    "● ○\n○ ●\n  -\n  ○\n  ○\n0 1"
)

GOLDEN_BIG_T5 = (
    "○ ○ ● ○ ●\n"
    "○ ● ○ ● ○\n"
    "○ ○ ● ● ○\n"
    "0 1 2 3 4"
)

GOLDEN_BIG_T5_TWISTED = (
    "○ ○ ●\n"
    "○ ● ○\n"
    "○ ○ ●\n"
    "  - -\n"
    "  ● ○\n"
    "  ● ○\n"
    "  ○ ●\n"
    "0 1 2"
)


def test_render_goldens():
    assert render(BarAbacus.from_partition(BarPartition(), 3)) == GOLDEN_EMPTY_T3
    ab = BarAbacus.from_partition(BarPartition([5, 3, 2, 1]), 3)
    assert render(ab) == GOLDEN_5321_T3
    assert render(ab.twist()) == GOLDEN_5321_T3_TWISTED
    big = BarAbacus.from_partition(BarPartition([14, 12, 8, 6, 3, 2]), 5)
    assert render(big) == GOLDEN_BIG_T5
    assert render(big.twist()) == GOLDEN_BIG_T5_TWISTED


def test_render_rejects_other_types():
    with pytest.raises(TypeError):
        render(Partition([2, 1]))


@pytest.mark.parametrize("t", [3, 5, 7, 13])
def test_abaci_built_unchecked_equal_their_validated_rebuild(t):
    """from_partition, twist and untwist build their records unchecked; each
    equals the record its validating constructor builds from the same fields,
    field by field and type by type."""
    for n in range(21):
        for lam in enumerate_partitions(n, "strict"):
            ab = BarAbacus.from_partition(lam, t)
            twisted = ab.twist()
            for record in (ab, twisted, twisted.untwist()):
                rebuilt = _validated(record)
                assert record == rebuilt
                assert [type(x) for x in record._key(record)] == [type(x) for x in rebuilt._key(rebuilt)]
            assert all(type(fr) is FencedRunner for fr in twisted.shifted)
            assert all(type(slots) is frozenset for slots in ab.runners)


def _reference_render(a) -> str:
    """The cell-by-cell drawing: one membership test of a runner's slot set
    per cell, each row built and the whole drawing joined in one piece."""
    if isinstance(a, BarAbacus):
        height = max((max(r) for r in a.runners if r), default=0) + 1
        lines = [" ".join(BLACK if slot in r else WHITE for r in a.runners) for slot in range(height - 1, -1, -1)]
        lines.append(" ".join(str(r) for r in range(a.t)))
        return "\n".join(lines)
    above_h = max([max(a.runner0, default=0)] + [max(fr.black_above, default=0) for fr in a.shifted]) + 1
    below_h = max(max(fr.white_below, default=0) for fr in a.shifted) + 1
    lines = []
    for slot in range(above_h - 1, -1, -1):
        row = [BLACK if slot in a.runner0 else WHITE]
        row += [BLACK if slot in fr.black_above else WHITE for fr in a.shifted]
        lines.append(" ".join(row))
    lines.append(" ".join([" "] + ["-"] * len(a.shifted)))
    for slot in range(below_h):
        lines.append(" ".join([" "] + [WHITE if slot in fr.white_below else BLACK for fr in a.shifted]))
    lines.append(" ".join(str(r) for r in range(len(a.shifted) + 1)))
    return "\n".join(lines)


def test_the_reference_renderer_draws_the_goldens():
    ab = BarAbacus.from_partition(BarPartition([5, 3, 2, 1]), 3)
    assert _reference_render(ab) == GOLDEN_5321_T3
    assert _reference_render(ab.twist()) == GOLDEN_5321_T3_TWISTED


@pytest.mark.parametrize("t", [3, 5, 7, 13])
def test_render_equals_the_cell_by_cell_reference(t):
    for n in range(21):
        for lam in enumerate_partitions(n, "strict"):
            ab = BarAbacus.from_partition(lam, t)
            assert render(ab) == _reference_render(ab), (lam, t)
            assert render(ab.twist()) == _reference_render(ab.twist()), (lam, t)


@pytest.mark.parametrize("height", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK])
def test_drawings_across_chunk_boundaries_equal_the_reference(height):
    """Beads on both sides of each chunk boundary, and at the top slot of
    both bands, so the first and last rows of every piece are drawn."""
    slots = {s for s in (0, 1, _CHUNK - 2, _CHUNK - 1, _CHUNK, _CHUNK + 1, height - 1) if s < height}
    parts = {3 * s + 1 for s in slots} | {3 * s + 2 for s in slots if s % 2 or s == height - 1}
    ab = BarAbacus.from_partition(BarPartition(sorted(parts, reverse=True)), 3)
    for drawing, rows in ((ab, height + 1), (ab.twist(), 2 * height + 2)):
        pieces = list(_lines(drawing))
        assert "\n".join(pieces) == _reference_render(drawing)
        assert sum(piece.count("\n") + 1 for piece in pieces) == rows
        assert max(piece.count("\n") + 1 for piece in pieces) <= _CHUNK
