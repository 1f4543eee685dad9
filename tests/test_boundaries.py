"""Refusals and input coercions at the public boundary of each module."""

import pytest

from barblocks.abacus import BarAbacus, FencedRunner, TwistedBarAbacus
from barblocks.blocks import NonSpinBlockId, SpinBlockId, nonspin_psi, psi, spin_block_members
from barblocks.characters import CharLabel
from barblocks.galois import (
    GaloisElement,
    _apply_exponent,
    _canon8,
    _scaling_sign,
    diff_value,
    oracle_tau_sqrt,
    tau_partition,
    tau_selfconjugate,
    tau_sqrt,
)
from barblocks.humphreys import GBlockId, GCharLabel, block_members, cocores, phi
from barblocks.littlewood import bar_reconstruct, ordinary_cocore, selfconjugate_paired_hooks
from barblocks.partitions import BarPartition, FrobeniusSymbol, Partition

SIGMA3 = GaloisElement.sigma(3)
SPIN_1 = BarPartition([1])

VARIANTS = r"variant must be one of \('whole', 'plus', 'minus'\)"
REFUSALS = {
    "fenced-runner-slot": (lambda: FencedRunner({-1}, ()), "slot labels must be non-negative"),
    "bar-abacus-runners": (
        lambda: BarAbacus(3, (frozenset(), frozenset())), "need 3 runners, got 2",
    ),
    "twisted-abacus-runners": (
        lambda: TwistedBarAbacus(5, frozenset(), ()), "need 2 shifted runners, got 0",
    ),
    "char-label-flavor": (
        lambda: CharLabel(SPIN_1, "stilde", "bogus", "whole"),
        r"flavor must be one of \('spin', 'nonspin'\)",
    ),
    "char-label-variant": (lambda: CharLabel(SPIN_1, "stilde", "spin", "bogus"), VARIANTS),
    "char-label-group": (
        lambda: CharLabel(SPIN_1, "g", "spin", "whole"),
        r"group must be one of \('stilde', 'atilde'\)",
    ),
    "g-char-label-group": (
        lambda: GCharLabel(BarPartition(), SPIN_1, "bogus", "whole"),
        r"group must be one of \('g', 'gplus'\)",
    ),
    "g-char-label-variant": (lambda: GCharLabel(BarPartition(), SPIN_1, "g", "bogus"), VARIANTS),
    "cocores-weight": (lambda: cocores(-1, 3), "w must be non-negative"),
    "nonspin-block-weight": (lambda: NonSpinBlockId(Partition(), -1, 3), "w must be non-negative"),
    "phi-of-nonspin": (
        lambda: phi(CharLabel(Partition([1]), "atilde", "nonspin", "whole"), 3),
        "phi is defined on spin labels",
    ),
    "tau-sqrt-zero": (lambda: tau_sqrt(0, SIGMA3), "m must be a positive integer, got 0"),
    "oracle-tau-sqrt-zero": (
        lambda: oracle_tau_sqrt(0, SIGMA3), "m must be a positive integer, got 0",
    ),
    "exponent-not-invertible": (
        lambda: _apply_exponent([1] * 8, 8, 2), "exponent map must be invertible",
    ),
    "frobenius-negative": (
        lambda: FrobeniusSymbol((-1,), (0,)), "arm and leg entries must be non-negative",
    ),
}


@pytest.mark.parametrize("make, message", REFUSALS.values(), ids=list(REFUSALS))
def test_bad_input_is_refused_with_its_message(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_an_automorphism_that_does_not_scale_by_a_sign_is_refused():
    """zeta_8 -> zeta_8**3 sends zeta_8 to neither zeta_8 nor -zeta_8."""
    zeta8 = [0, 1, 0, 0, 0, 0, 0, 0]
    with pytest.raises(ArithmeticError, match="does not scale this element by a sign"):
        _scaling_sign(zeta8, 8, 3, _canon8)


COERCIONS = {
    "psi": lambda kind: psi(SpinBlockId(BarPartition(), 1, "stilde", 3), kind([1])),
    "tau_partition": lambda kind: tau_partition(kind([2, 1]), SIGMA3),
    "tau_selfconjugate": lambda kind: tau_selfconjugate(kind([2, 1]), SIGMA3),
    "selfconjugate_paired_hooks": lambda kind: selfconjugate_paired_hooks(kind([2, 1]), 3),
    "diff_value": lambda kind: diff_value(kind([2, 1])),
    "bar_reconstruct": lambda kind: bar_reconstruct(kind([1]), (SPIN_1, Partition()), 3),
    "spin_block_n": lambda kind: SpinBlockId(kind([]), 1, "stilde", 3).n,
    "spin_block_members": lambda kind: spin_block_members(SpinBlockId(kind([]), 1, "stilde", 3)),
    "g_block_members": lambda kind: block_members(GBlockId(kind([]), 1, "g", 3)),
    "nonspin_block_n": lambda kind: NonSpinBlockId(kind([1]), 1, 3).n,
    "nonspin_psi": lambda kind: nonspin_psi(kind([1]), kind([1]), 1, 3),
}


BLOCK_IDS = {
    "spin": lambda p: SpinBlockId(BarPartition(), 1, "stilde", p),
    "nonspin": lambda p: NonSpinBlockId(Partition(), 1, p),
    "g": lambda p: GBlockId(BarPartition(), 1, "g", p),
}


@pytest.mark.parametrize("p", [9, 15, 1])
@pytest.mark.parametrize("block", BLOCK_IDS.values(), ids=list(BLOCK_IDS))
def test_block_ids_refuse_a_p_that_is_not_an_odd_prime(block, p):
    with pytest.raises(ValueError, match=f"^p must be an odd prime, got {p}$"):
        block(p)


@pytest.mark.parametrize("call", COERCIONS.values(), ids=list(COERCIONS))
def test_a_list_is_read_as_the_bar_partition_it_spells(call):
    assert call(list) == call(BarPartition)


def test_ordinary_cocore_of_a_cocore_is_itself():
    assert ordinary_cocore(Partition([3, 2, 1]), 3) == Partition([3, 2, 1])


def test_partition_order_is_the_order_of_parts():
    assert Partition([2]) <= Partition([2, 1]) <= Partition([2, 1])
    assert not Partition([2, 1]) <= Partition([2])
