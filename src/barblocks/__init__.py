"""Bar-partition combinatorics, abacus decompositions, Galois sign actions,
and block bijections for double covers of symmetric and alternating groups.

The public names are served lazily (PEP 562): importing the package loads no
submodule, and a name loads its defining module on first use.
"""

from importlib import import_module

__version__ = "0.1.0"

_NAMES_BY_MODULE = {
    "abacus": ("BarAbacus", "FencedRunner", "TwistedBarAbacus", "render"),
    "blocks": (
        "LabelMap", "NonSpinBlockId", "SpinBlockId", "equivariance_check", "nonspin_block_members",
        "nonspin_psi", "phi_map", "psi", "spin_block_members",
    ),
    "characters": (
        "ATILDE", "STILDE", "CharLabel", "bar_hook_lengths", "classify", "degree_valuation",
        "height_and_defect", "label_tau",
    ),
    "galois": (
        "GaloisElement", "SurdValue", "diff_value", "jacobi", "oracle_tau_sqrt",
        "standard_generators", "tau_i", "tau_partition", "tau_selfconjugate", "tau_sqrt",
        "tau_sqrt2",
    ),
    "humphreys": (
        "G", "GPLUS", "GBlockId", "GCharLabel", "block_members", "classify_g", "g_degree_valuation",
        "phi", "phi_inverse", "tau_g",
    ),
    "littlewood": (
        "BarLittlewood", "OrdinaryLittlewood", "bar_decompose", "bar_reconstruct",
        "ordinary_decompose", "ordinary_reconstruct", "paired_parts", "selfconjugate_paired_hooks",
    ),
    "partitions": ("BarPartition", "FrobeniusSymbol", "Partition", "enumerate_partitions"),
    "suites": ("VerificationReport", "verify"),
}
# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in _NAMES_BY_MODULE.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _NAMES_BY_MODULE:  # a submodule, as after an eager import
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
