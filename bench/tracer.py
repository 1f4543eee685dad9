"""Boundary tracer for the per-layer run of the benchmark.

Runs one ``barblocks`` CLI command with every public function of the eight
layer modules wrapped, and writes call counts and self times as JSON:

    PYTHONPATH=src python3 bench/tracer.py OUT.json verify little --p 13 --max-n 30

The command's stdout, stderr and exit code are those of
``python -m barblocks.cli`` with the same arguments.

Wrapping rebinds each public module-level function in every ``barblocks``
module that holds it (the defining module and the importing ones), and the
public methods of the boundary classes.  A layer's self time is the time its
frames spend on top of the span stack, so the self times of all layers sum
exactly to the traced wall time of ``cli.main``.  A generator's span covers
each resumption of its iteration, not its creation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import FunctionType

LAYERS = ("partitions", "abacus", "littlewood", "galois", "characters", "humphreys", "blocks", "cli")

# Boundary classes whose public methods are wrapped, by layer.
CLASSES = {
    "partitions": ("Partition", "FrobeniusSymbol"),
    "abacus": ("FencedRunner", "BarAbacus", "TwistedBarAbacus"),
}

# Named groups of wrapped callables, keyed "<module>.<qualname>".
GROUPS = {
    "partitions.frobenius": ("partitions.Partition.frobenius",),
    "partitions.enumerate": (
        "partitions.enumerate_partitions",
        "blocks.strict_partitions_of",
        "blocks.partitions_of",
    ),
    "abacus.runner_ops": (
        "abacus.FencedRunner.normalize",
        "abacus.FencedRunner.shift",
        "abacus.FencedRunner.from_partition",
        "abacus.FencedRunner.to_partition",
        "abacus.BarAbacus.from_partition",
        "abacus.BarAbacus.twist",
        "abacus.BarAbacus.to_partition",
        "abacus.TwistedBarAbacus.to_partition",
    ),
    "littlewood.decompose": ("littlewood.bar_decompose", "littlewood.ordinary_decompose"),
    "littlewood.reconstruct": ("littlewood.bar_reconstruct", "littlewood.ordinary_reconstruct"),
    "galois.closed": (
        "galois.tau_partition",
        "galois.tau_selfconjugate",
        "galois.tau_sqrt",
        "galois.diff_value",
        "characters.label_tau",
        "humphreys.tau_g",
    ),
    "galois.oracle": (
        "galois.oracle_tau_i",
        "galois.oracle_tau_sqrt2",
        "galois.oracle_tau_sqrt",
        "galois.oracle_tau_surd",
    ),
    "characters.valuation": (
        "characters.spin_degree_valuation",
        "characters.nonspin_degree_valuation",
        "characters.degree_valuation",
    ),
    "humphreys.phi": ("humphreys.phi", "humphreys.phi_inverse"),
    "blocks.membership": (
        "blocks.spin_block_members",
        "blocks.nonspin_block_members",
        "humphreys.block_members",
        "humphreys.cocores",
    ),
    "blocks.maps": ("blocks.psi", "blocks.nonspin_psi", "blocks.phi_map", "blocks.equivariance_check"),
}
# Groups whose self time is kept apart, and groups timed inclusively
# (outermost span only).
SELF_GROUPS = ("galois.closed", "galois.oracle")
INCLUSIVE_GROUPS = ("partitions.enumerate", "littlewood.decompose", "blocks.membership")
DECOMPOSE = "littlewood.decompose"
MEMBERSHIP = "blocks.membership"


def _key(value):
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


class Tracer:
    """Span stack, counters and self-time accounting for one process."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)  # (layer, self group or None) -> seconds
        self.inclusive_s = defaultdict(float)
        self.wall_s = 0.0
        self.repeats = 0
        self.labels = 0
        self.member_decompositions = 0
        self._seen = set()
        self._depth = Counter()
        self._opened = {}
        self._stack = []
        self._last = 0.0

    # -- span accounting --------------------------------------------------

    def _enter(self, frame, tags):
        now = perf_counter()
        if self._stack:
            self.self_s[self._stack[-1]] += now - self._last
        self._last = now
        self._stack.append(frame)
        for tag in tags:
            if tag in INCLUSIVE_GROUPS:
                if not self._depth[tag]:
                    self._opened[tag] = now
                self._depth[tag] += 1

    def _leave(self, frame, tags):
        now = perf_counter()
        self.self_s[frame] += now - self._last
        self._last = now
        self._stack.pop()
        for tag in tags:
            if tag in INCLUSIVE_GROUPS:
                self._depth[tag] -= 1
                if not self._depth[tag]:
                    self.inclusive_s[tag] += now - self._opened.pop(tag)

    def _count(self, layer, tags, args, kwargs):
        self.calls[layer] += 1
        for tag in tags:
            self.calls[tag] += 1
        if DECOMPOSE in tags:
            key = (tuple(_key(a) for a in args), tuple(sorted((k, _key(v)) for k, v in kwargs.items())))
            if key in self._seen:
                self.repeats += 1
            else:
                self._seen.add(key)
            if self._depth[MEMBERSHIP]:
                self.member_decompositions += 1

    # -- wrappers ---------------------------------------------------------

    def wrap(self, fn, layer, tags):
        frame = (layer, next((t for t in tags if t in SELF_GROUPS), None))
        outermost_member = MEMBERSHIP in tags

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self._count(layer, tags, args, kwargs)
                it = fn(*args, **kwargs)  # runs none of the body
                while True:
                    self._enter(frame, tags)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._leave(frame, tags)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count(layer, tags, args, kwargs)
            top = outermost_member and not self._depth[MEMBERSHIP]
            self._enter(frame, tags)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, tags)
            if top:
                self.labels += len(result)
            return result

        return traced

    def install(self):
        """Wrap every public function and boundary method of the layers."""
        tags_of = defaultdict(list)
        for group, names in GROUPS.items():
            for name in names:
                tags_of[name].append(group)
        modules = {layer: importlib.import_module(f"barblocks.{layer}") for layer in LAYERS}
        modules["__init__"] = importlib.import_module("barblocks")

        wrapped, seen = {}, set()
        for layer, module in modules.items():
            if layer == "__init__":
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(obj, layer, tuple(tags_of.get(f"{layer}.{name}", ())))
                seen.add(f"{layer}.{name}")
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if id(obj) in wrapped and not name.startswith("__"):
                    setattr(module, name, wrapped[id(obj)])

        for layer, class_names in CLASSES.items():
            for class_name in class_names:
                cls = getattr(modules[layer], class_name)
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_"):
                        continue
                    qualified = f"{layer}.{class_name}.{name}"
                    tags = tuple(tags_of.get(qualified, ()))
                    if isinstance(attr, (classmethod, staticmethod)):
                        setattr(cls, name, type(attr)(self.wrap(attr.__func__, layer, tags)))
                    elif isinstance(attr, FunctionType):
                        setattr(cls, name, self.wrap(attr, layer, tags))
                    else:
                        continue
                    seen.add(qualified)
        missing = set(tags_of) - seen
        if missing:  # a renamed function would otherwise read as 0 calls
            raise RuntimeError(f"traced names not found in barblocks: {sorted(missing)}")

    def run(self, main, argv):
        """Call the CLI entry point as the root ``cli`` span."""
        frame = ("cli", None)
        self._enter(frame, ())
        start = self._last
        try:
            return main(argv)
        finally:
            self._leave(frame, ())
            self.wall_s = self._last - start

    def to_json(self) -> dict:
        self_s = defaultdict(float)
        for (layer, group), seconds in self.self_s.items():
            self_s[layer] += seconds
            if group:
                self_s[group] += seconds
        return {
            "wall_s": self.wall_s,
            "calls": dict(self.calls),
            "self_s": dict(self_s),
            "inclusive_s": dict(self.inclusive_s),
            "repeats": self.repeats,
            "labels": self.labels,
            "member_decompositions": self.member_decompositions,
        }


def main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    import barblocks.cli

    code = 0
    try:
        code = tracer.run(barblocks.cli.main, cli_args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    finally:
        with open(out_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
