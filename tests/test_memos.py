"""Every memo of src/barblocks has one declared grain and bound, and the
bounds keep a sweep's memory in proportion to the work in hand.

A memo is bounded by a constant when its entries can grow with the labels a
sweep visits: a memo keyed by a label, and, because at p = 3 each label has
one fenced runner, one keyed by a runner or a placed component.  A memo keyed
by other shared structure (a core, block, prime or oracle field) is
unbounded.  A new memo, or a changed bound, edits MEMOS.
"""

import ast
import gc
import importlib
import tracemalloc
from pathlib import Path

import pytest

from barblocks import galois
from barblocks.galois import _is_odd_prime
from barblocks.suites import verify

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "barblocks").glob("*.py"))
MODULES = [path.stem for path in SOURCES if path.stem != "__init__"]

# module.function -> (maxsize, grain: what one entry is keyed by)
MEMOS = {
    "blocks.spin_block_members": (None, "per spin block"),
    "blocks.nonspin_block_members": (None, "per non-spin block"),
    "characters._valuation": (4096, "per label: parts, p and spin or not"),
    "galois._is_odd_prime": (None, "per prime"),
    "galois._legendre": (None, "per prime and residue s mod p"),
    "galois._tau_partition_cached": (
        8192,
        "per strict part tuple (a spin label, or a self-conjugate label's diagonal hooks) "
        "and sign class: p, e & 1 and (s/p)",
    ),
    "galois._zeta8_sign": (None, "per oracle field and exponent: i or sqrt(2), and c mod 8"),
    "galois._gauss_sign": (None, "per oracle field and exponent: q and c mod q"),
    "galois._gauss_sum": (None, "per oracle field: q"),
    "littlewood._normalized": (2048, "per runner"),
    "littlewood._core": (None, "per core: layout, characteristic vector and modulus"),
    "littlewood._placed": (2048, "per placed component: parts and charnum"),
    "littlewood._decompose": (4096, "per label: layout, parts and modulus"),
    "littlewood._members": (None, "per block: layout, core, modulus, weight and score"),
    "suites._block_heights": (None, "per block of any kind, cleared when each verify run starts"),
}


def _memos(trees: dict[str, ast.Module]) -> dict[str, object]:
    """module.function -> maxsize of each function decorated with
    functools.lru_cache or functools.cache, read from the source."""
    found = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for decorator in node.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                func = call.func if call else decorator
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name not in ("lru_cache", "cache"):
                    continue
                maxsize = None if name == "cache" else 128
                if call and call.args:
                    maxsize = ast.literal_eval(call.args[0])
                for keyword in call.keywords if call else ():
                    if keyword.arg == "maxsize":
                        maxsize = ast.literal_eval(keyword.value)
                found[f"{module}.{node.name}"] = maxsize
    return found


def _clear_every_memo():
    for module in MODULES:
        for obj in vars(importlib.import_module(f"barblocks.{module}")).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


def test_every_memo_is_declared_with_its_bound():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _memos(trees) == {name: maxsize for name, (maxsize, _) in MEMOS.items()}
    for name, (maxsize, grain) in MEMOS.items():
        module, function = name.split(".")
        memo = getattr(importlib.import_module(f"barblocks.{module}"), function)
        assert memo.cache_info().maxsize == maxsize, name
        assert grain.startswith("per "), name


def test_the_memo_reader_finds_every_form():
    tree = ast.parse(
        "@lru_cache(maxsize=None)\ndef a(): pass\n\n"
        "@functools.lru_cache(64)\ndef b(): pass\n\n"
        "@lru_cache\ndef c(): pass\n\n"
        "class K:\n    @cache\n    def d(self): pass\n"
    )
    assert _memos({"m": tree}) == {"m.a": None, "m.b": 64, "m.c": 128, "m.d": None}


def _peak_mib(bound: int) -> float:
    """Peak traced MiB of one sweep from empty memos.  The collection empties
    the interpreter's free lists, whose parked tuples would otherwise count
    or not depending on what ran before in the process."""
    _clear_every_memo()
    gc.collect()
    tracemalloc.start()
    try:
        report = verify("roundtrips", 3, bound)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    return peak / 2**20


def test_sweep_memory_grows_slower_than_the_cases():
    """From bound 30 to 45 the cases grow from 2,035 to 16,857, but the
    per-label memos are bounded, so the peak grows by at most 4x (the
    per-runner memos, bounded at 2,048, hold that many of the 2,763 runners
    seen at 45)."""
    small, large = _peak_mib(30), _peak_mib(45)
    assert large <= 4 * small, (small, large)


def test_the_prime_is_checked_once_per_sweep():
    """tau_oracle builds 3(p-1) automorphisms at p; the primality of p is
    decided once for all of them."""
    _is_odd_prime.cache_clear()
    assert verify("tau_oracle", 10007, 1).passed
    assert _is_odd_prime.cache_info().misses == 1


@pytest.mark.parametrize("suite", ["phi", "tau_nonspin", "psi"])
def test_the_automorphisms_are_built_once_per_run(suite, monkeypatch):
    """standard_generators keeps no memo; a suite over automorphisms builds
    them, and their sign classes, once per run rather than once per case."""
    calls = []
    real = galois.standard_generators

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(galois, "standard_generators", counted)
    report = verify(suite, 5, 10, w_max=2)
    assert report.passed and report.cases > 1
    assert calls == [5]
