import os
import pkgutil
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import barblocks

# the public names of the package, as its eager imports bound them
PUBLIC = {
    "abacus": "BarAbacus FencedRunner TwistedBarAbacus render",
    "blocks": "LabelMap NonSpinBlockId SpinBlockId equivariance_check nonspin_block_members "
    "nonspin_psi phi_map psi spin_block_members",
    "characters": "ATILDE STILDE CharLabel bar_hook_lengths classify degree_valuation "
    "height_and_defect label_tau",
    "galois": "GaloisElement SurdValue diff_value jacobi oracle_tau_sqrt standard_generators tau_i "
    "tau_partition tau_selfconjugate tau_sqrt tau_sqrt2",
    "humphreys": "G GPLUS GBlockId GCharLabel block_members classify_g g_degree_valuation phi "
    "phi_inverse tau_g",
    "littlewood": "BarLittlewood OrdinaryLittlewood bar_decompose bar_reconstruct ordinary_decompose "
    "ordinary_reconstruct paired_parts selfconjugate_paired_hooks",
    "partitions": "BarPartition FrobeniusSymbol Partition enumerate_partitions",
    "suites": "VerificationReport verify",
}


def test_all_lists_the_public_names():
    assert len(barblocks.__all__) == len(set(barblocks.__all__)) == 56
    assert set(barblocks.__all__) == {name for names in PUBLIC.values() for name in names.split()}
    assert barblocks.__version__ == "0.1.0"


@pytest.mark.parametrize("module", PUBLIC)
def test_each_name_is_its_defining_modules_object(module):
    defining = import_module(f"barblocks.{module}")
    for name in PUBLIC[module].split():
        assert getattr(barblocks, name) is getattr(defining, name), name


def test_star_import_and_dir():
    namespace = {}
    exec("from barblocks import *", namespace)
    assert set(barblocks.__all__) <= set(namespace)
    assert set(barblocks.__all__) | {"__version__"} <= set(dir(barblocks))


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        barblocks.nope
    with pytest.raises(ImportError):
        exec("from barblocks import nope", {})


def test_submodules_stay_reachable_as_attributes():
    from barblocks import littlewood

    assert barblocks.littlewood is littlewood
    assert barblocks.suites.verify is barblocks.verify


def test_no_submodule_shadows_a_public_name():
    """Importing a submodule binds it as an attribute of the package, so a
    submodule named like a public name (a verify.py) would replace that name
    once anything imports it."""
    for info in pkgutil.iter_modules(barblocks.__path__):
        import_module(f"barblocks.{info.name}")
    assert barblocks.verify is barblocks.suites.verify
    for name, module in barblocks._EXPORTS.items():
        assert getattr(barblocks, name) is getattr(import_module(f"barblocks.{module}"), name), name
    assert set(barblocks._NAMES_BY_MODULE) & set(barblocks._EXPORTS) == set()


def test_importing_the_package_loads_no_submodule():
    code = "import sys, barblocks; print(sorted(m for m in sys.modules if m.startswith('barblocks.')))"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
