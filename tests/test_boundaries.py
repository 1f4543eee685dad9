"""Refusals and input coercions at the public boundary of each module."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import barblocks
from barblocks.abacus import BarAbacus, FencedRunner, TwistedBarAbacus
from barblocks.blocks import (
    NonSpinBlockId,
    SpinBlockId,
    equivariance_check,
    nonspin_psi,
    psi,
    spin_block_members,
)
from barblocks.characters import (
    CharLabel,
    bar_hook_lengths,
    classify,
    nonspin_degree_valuation,
    spin_degree_valuation,
)
from barblocks.galois import (
    GaloisElement,
    SurdValue,
    _apply_exponent,
    _canon8,
    _scaling_sign,
    diff_value,
    jacobi,
    oracle_tau_sqrt,
    selfconjugate_diff_value,
    squarefree_part,
    standard_generators,
    tau_partition,
    tau_selfconjugate,
    tau_sqrt,
)
from barblocks.humphreys import GBlockId, GCharLabel, block_members, classify_g, cocores, phi
from barblocks.littlewood import (
    bar_decompose,
    bar_reconstruct,
    ordinary_decompose,
    ordinary_reconstruct,
    paired_parts,
    selfconjugate_paired_hooks,
)
from barblocks.partitions import BarPartition, FrobeniusSymbol, Partition, enumerate_partitions
from barblocks.suites import verify

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "barblocks").glob("*.py"))

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
    "spin-label-not-strict": (
        lambda: CharLabel([2, 2], "stilde", "spin", "whole"), "parts must be strictly decreasing",
    ),
    "g-char-label-not-strict": (
        lambda: GCharLabel([1, 1], [2], "g", "whole"), "parts must be strictly decreasing",
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


# row -> (the callable whose partition arguments the row passes as kind, the call)
COERCIONS = {
    "psi": (psi, lambda kind: psi(SpinBlockId(BarPartition(), 1, "stilde", 3), kind([1]))),
    "tau_partition": (tau_partition, lambda kind: tau_partition(kind([2, 1]), SIGMA3)),
    "tau_selfconjugate": (tau_selfconjugate, lambda kind: tau_selfconjugate(kind([2, 1]), SIGMA3)),
    "selfconjugate_paired_hooks": (
        selfconjugate_paired_hooks, lambda kind: selfconjugate_paired_hooks(kind([2, 1]), 3),
    ),
    "diff_value": (diff_value, lambda kind: diff_value(kind([2, 1]))),
    "bar_reconstruct": (
        bar_reconstruct, lambda kind: bar_reconstruct(kind([1]), (SPIN_1, Partition()), 3),
    ),
    "spin_block_n": (SpinBlockId, lambda kind: SpinBlockId(kind([]), 1, "stilde", 3).n),
    "spin_block_members": (
        SpinBlockId, lambda kind: spin_block_members(SpinBlockId(kind([]), 1, "stilde", 3)),
    ),
    "g_block_members": (GBlockId, lambda kind: block_members(GBlockId(kind([]), 1, "g", 3))),
    "nonspin_block_n": (NonSpinBlockId, lambda kind: NonSpinBlockId(kind([1]), 1, 3).n),
    "nonspin_psi": (nonspin_psi, lambda kind: nonspin_psi(kind([1]), kind([1]), 1, 3)),
    "fenced_runner": (
        FencedRunner.from_partition, lambda kind: FencedRunner.from_partition(kind([2, 1])),
    ),
    "bar_abacus": (
        BarAbacus.from_partition, lambda kind: BarAbacus.from_partition(kind([4, 2, 1]), 3),
    ),
    "spin_label": (CharLabel, lambda kind: CharLabel(kind([2, 1]), "stilde", "spin", "plus")),
    "nonspin_label": (CharLabel, lambda kind: CharLabel(kind([2, 1]), "atilde", "nonspin", "plus")),
    "classify": (classify, lambda kind: classify(kind([2, 1]), "stilde")),
    "classify_nonspin": (classify, lambda kind: classify(kind([2, 1]), "atilde", "nonspin")),
    "bar_hook_lengths": (bar_hook_lengths, lambda kind: bar_hook_lengths(kind([3, 2, 1]))),
    "spin_degree_valuation": (
        spin_degree_valuation, lambda kind: spin_degree_valuation(kind([3, 2, 1]), 3),
    ),
    "nonspin_degree_valuation": (
        nonspin_degree_valuation, lambda kind: nonspin_degree_valuation(kind([3, 1]), 3),
    ),
    "selfconjugate_diff_value": (
        selfconjugate_diff_value, lambda kind: selfconjugate_diff_value(kind([2, 1])),
    ),
    "g_char_label": (GCharLabel, lambda kind: GCharLabel(kind([2, 1]), kind([1]), "g", "plus")),
    "classify_g": (classify_g, lambda kind: classify_g(kind([2, 1]), kind([1]), "g")),
    "bar_decompose": (bar_decompose, lambda kind: bar_decompose(kind([5, 3, 1]), 3)),
    "paired_parts": (paired_parts, lambda kind: paired_parts(kind([2, 1]), 3)),
    "ordinary_decompose": (ordinary_decompose, lambda kind: ordinary_decompose(kind([3, 1]), 3)),
    "ordinary_reconstruct": (
        ordinary_reconstruct,
        lambda kind: ordinary_reconstruct(kind([1]), (kind([]), kind([1]), kind([])), 3),
    ),
}

# public callables with a partition parameter that need no row: they are built
# by the engine and returned, never called with a caller's partition
NOT_ENTRY_POINTS = {
    "littlewood.BarLittlewood": "the bar decomposition record, engine output",
    "littlewood.OrdinaryLittlewood": "the ordinary decomposition record, engine output",
}
PARTITION_ANNOTATIONS = {"Partition", "BarPartition", "Sequence[Partition]"}


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


@pytest.mark.parametrize("call", [call for _, call in COERCIONS.values()], ids=list(COERCIONS))
def test_a_list_is_read_as_the_bar_partition_it_spells(call):
    assert call(list) == call(tuple) == call(BarPartition)


def _name(target) -> str:
    return f"{target.__module__.rsplit('.', 1)[1]}.{target.__qualname__}"


def _partition_callables() -> set[str]:
    """module.qualname of each public module-level function and class of the
    package, and of each public classmethod of those classes, that has a
    parameter annotated as a partition."""
    found = set()
    for info in pkgutil.iter_modules(barblocks.__path__):
        module = importlib.import_module(f"barblocks.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            targets = [obj]
            if inspect.isclass(obj):
                targets += [
                    getattr(obj, key) for key, value in vars(obj).items()
                    if isinstance(value, classmethod) and not key.startswith("_")
                ]
            for target in targets:
                parameters = inspect.signature(target).parameters.values()
                if any(param.annotation in PARTITION_ANNOTATIONS for param in parameters):
                    found.add(_name(target))
    return found


def test_every_partition_argument_has_a_coercion_row():
    found = _partition_callables()
    assert set(NOT_ENTRY_POINTS) <= found
    assert found - set(NOT_ENTRY_POINTS) == {_name(target) for target, _ in COERCIONS.values()}


def _class_tests(tree: ast.Module):
    """Line of each isinstance call whose class argument names a partition class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
            classes = {
                ast.unparse(name) for name in ast.walk(node.args[1])
                if isinstance(name, (ast.Name, ast.Attribute))
            }
            if classes & {"Partition", "BarPartition", "layout.label"}:
                yield node.lineno


def test_only_partitions_asks_a_partition_for_its_class():
    """partitions._as is the one read of a partition argument."""
    found = [
        f"{path.stem}:{line}"
        for path in SOURCES
        if path.stem != "partitions"
        for line in _class_tests(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []


def test_a_class_test_left_behind_is_found():
    tree = ast.parse(
        "if not isinstance(lam, layout.label):\n    lam = layout.label(lam)\n"
        "ok = isinstance(x, (int, BarPartition))\n"
        "other = isinstance(x, GBlockId)\n"
    )
    assert sorted(_class_tests(tree)) == [1, 3]


# a part, a Frobenius coordinate, a slot, t or m, a Galois exponent, a Jacobi
# or surd argument, a size bound or a weight that is not an integer is refused,
# not truncated
NON_INTEGERS = {
    "partition-part": lambda: Partition([2.7, 1]),
    "partition-text-part": lambda: Partition(["3"]),
    "frobenius-leg": lambda: FrobeniusSymbol((1.5,), (0,)),
    "frobenius-arm": lambda: FrobeniusSymbol((0,), (1.5,)),
    "fenced-runner-slot": lambda: FencedRunner({1.5}, ()),
    "abacus-t": lambda: BarAbacus.from_partition([2, 1], 3.0),
    "decompose-modulus": lambda: bar_decompose([2, 1], 3.5),
    "galois-element-p": lambda: GaloisElement(3.0),
    "galois-element-e": lambda: GaloisElement(5, 1.5),
    "galois-element-s": lambda: GaloisElement(5, 1, 2.0),
    "spin-block-weight": lambda: SpinBlockId([], 1.5, "stilde", 3),
    "nonspin-block-weight": lambda: NonSpinBlockId([], 1.5, 3),
    "g-block-weight": lambda: GBlockId([], 1.5, "g", 3),
    "jacobi-a": lambda: jacobi(2.5, 7),
    "jacobi-n": lambda: jacobi(2, 3.0),
    "tau-sqrt-m": lambda: tau_sqrt(1.5, SIGMA3),
    "oracle-tau-sqrt-m": lambda: oracle_tau_sqrt(6.0, SIGMA3),
    "surd-two-exp": lambda: SurdValue(1.0, 1, 6),
    "surd-i-exp": lambda: SurdValue(0, 1.5, 6),
    "surd-radicand": lambda: SurdValue(0, 1, 6.0),
    "squarefree-part": lambda: squarefree_part(6.0),
    "verify-bound": lambda: verify("roundtrips", 3, 5.0),
    "verify-w-max": lambda: verify("roundtrips", 3, 5, w_max=2.5),
    "enumerate-partitions": lambda: enumerate_partitions(2.5),
    "cocores-weight": lambda: cocores(1.5, 3),
    "valuation-p": lambda: (spin_degree_valuation([2, 1], 3), spin_degree_valuation([2, 1], 3.0)),
}


@pytest.mark.parametrize("make", NON_INTEGERS.values(), ids=list(NON_INTEGERS))
def test_a_non_integer_is_refused_not_truncated(make):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        make()


def test_a_spin_label_reads_its_partition_as_strict():
    """CharLabel accepts a Partition with distinct parts, as classify does."""
    label = CharLabel(Partition([2, 1]), "stilde", "spin", "plus")
    assert label == CharLabel(BarPartition([2, 1]), "stilde", "spin", "plus")
    assert type(label.partition) is BarPartition
    assert classify(Partition([2, 1]), "stilde") == classify(BarPartition([2, 1]), "stilde")


@pytest.mark.parametrize("p", [5, 7])
def test_the_core_tau_note_does_not_depend_on_the_class_of_the_cores(p):
    """A non-spin block takes the self-conjugate tau of its cores even when
    the strict cores [2, 1] and [1] arrive as BarPartitions."""

    def notes(kind):
        lmap = nonspin_psi(kind([2, 1]), kind([1]), 1, p)
        return equivariance_check(lmap, standard_generators(p)).notes

    assert notes(BarPartition) == notes(Partition)


def test_ordinary_cocore_of_a_cocore_is_itself():
    assert ordinary_decompose(Partition([3, 2, 1]), 3).cocore == Partition([3, 2, 1])


def test_partition_order_is_the_order_of_parts():
    assert Partition([2]) <= Partition([2, 1]) <= Partition([2, 1])
    assert not Partition([2, 1]) <= Partition([2])
