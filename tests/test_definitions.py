"""Every module-level definition of src/barblocks has a reader: code in
src/barblocks reads it, or it is public, a dunder, or allowed below.  A public
name has a reader too, or is allowed in a list of its own, and so has every
method, property and classmethod of a class.  And one method writes the JSON
of every record."""

import ast
from collections import Counter
from pathlib import Path

import barblocks

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "barblocks").glob("*.py"))

# module.name -> why it stays although no code in src/barblocks reads it
ALLOWED = {
    "blocks.partitions_of": "bench/tracer.py GROUPS traces it; it goes together with that entry",
    "blocks.strict_partitions_of": "bench/tracer.py GROUPS traces it; it goes together with that entry",
    "characters.nonspin_degree_valuation": (
        "bench/tracer.py GROUPS traces it, and the Macdonald count test reads it"
    ),
    "galois.selfconjugate_diff_value": "oracle route: the surd tau_selfconjugate is tested against",
    "galois.oracle_tau_surd": "oracle route: the sign the closed-form taus are tested against",
}

# public module.name -> why it stays although no code in src/barblocks reads it
PUBLIC_ALLOWED = {
    "abacus.render": "the one-string drawing for library callers; the CLI writes the same lines through _lines",
    "characters.bar_hook_lengths": "the hook route that valuations are tested against",
    "galois.tau_sqrt2": "the closed form that the oracle's sqrt(2) sign is tested against",
    "littlewood.ordinary_reconstruct": "the inverse of ordinary_decompose",
}

# module.Class.member -> why it stays although no code in src/barblocks reads it
MEMBER_ALLOWED = {
    "abacus.FencedRunner.normalize": (
        "bench/tracer.py GROUPS traces it, and the tracer refuses to run without it "
        "(test_every_name_the_benchmark_tracer_wraps_exists)"
    ),
    "partitions._Record._replace": (
        "the README's way to make a changed copy of a record; the mutation tests build doctored records with it"
    ),
}


def _definitions(tree: ast.Module):
    """(name, statement) for each def, class and assigned name at module level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node


def _reads(module: str, tree: ast.Module):
    """((module, name), statement) for each name a module-level statement
    reads: a loaded name of this module, a name imported from a sibling, or
    an attribute of a sibling imported as a module (``from . import x``)."""
    siblings = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
        for alias in node.names
    }
    for statement in tree.body:
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                yield (module, node.id), statement
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for alias in node.names:
                    yield (node.module, alias.name), statement
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
            ):
                yield (siblings[node.value.id], node.attr), statement


def _unread(trees: dict[str, ast.Module], public=(), allowed=()) -> list[str]:
    """module.name (line) of each definition that no other statement reads
    and that is neither public, a dunder nor allowed."""
    readers: dict[tuple[str, str], set[int]] = {}
    for module, tree in trees.items():
        for key, statement in _reads(module, tree):
            readers.setdefault(key, set()).add(id(statement))
    out = []
    for module, tree in trees.items():
        for name, statement in _definitions(tree):
            if readers.get((module, name), set()) - {id(statement)}:
                continue
            if name in public or name.startswith("__") or f"{module}.{name}" in allowed:
                continue
            out.append(f"{module}.{name} (line {statement.lineno})")
    return out


def _source_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def test_every_definition_has_a_reader():
    assert _unread(_source_trees(), barblocks.__all__, ALLOWED) == []


def test_every_allowed_name_is_defined_and_unread():
    """A name that is deleted, or that code starts to read, leaves the list."""
    unread = {entry.split(" ")[0] for entry in _unread(_source_trees(), barblocks.__all__)}
    assert unread == set(ALLOWED)


def test_every_public_name_has_a_reader():
    """A public name that only repeats another public call, and that no code
    in src/barblocks (the CLI included) reads, fails here; an allowed one
    that code starts to read leaves the list."""
    unread = {entry.split(" ")[0] for entry in _unread(_source_trees(), allowed=ALLOWED)}
    assert unread == set(PUBLIC_ALLOWED)
    assert {name.split(".")[1] for name in PUBLIC_ALLOWED} <= set(barblocks.__all__)


def test_a_definition_left_behind_is_found():
    trees = {
        "a": ast.parse(
            "LIMIT = 3\n\n"
            "def used():\n    return LIMIT\n\n"
            "def unused():\n    return used()\n\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n\n"
            "class Public:\n    pass\n"
        ),
        "b": ast.parse("from .a import used\n\nVALUE = used()\n__all__ = ['VALUE']\n"),
    }
    unread = ["a.unused (line 6)", "a.recursive (line 9)"]
    assert _unread(trees, public=("Public", "VALUE")) == unread


def test_an_attribute_of_a_sibling_module_is_a_read():
    trees = {
        "a": ast.parse("def read():\n    pass\n\ndef unread():\n    pass\n"),
        "b": ast.parse("def run():\n    from . import a\n\n    return a.read()\n"),
        "c": ast.parse("import a\n\ndef run():\n    return a.unread()\n"),
    }
    assert _unread(trees, public=("run",)) == ["a.unread (line 4)"]


def _members(tree: ast.Module):
    """(Class.name, def) for each method, property and classmethod of each
    class in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{member.name}", member


def _member_reads(node: ast.AST):
    """Each name that node reads as an attribute or spells as a string
    constant (``operator.methodcaller("sort_key")``)."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def _unread_members(trees: dict[str, ast.Module], allowed=()) -> list[str]:
    """module.Class.name (line) of each member, not a dunder nor allowed,
    whose name nothing reads outside its own definition.  The scan goes by
    name, so a read of one class's to_partition counts for every class's."""
    reads = Counter(name for tree in trees.values() for name in _member_reads(tree))
    out = []
    for module, tree in trees.items():
        for qualname, member in _members(tree):
            if member.name.startswith("__") or f"{module}.{qualname}" in allowed:
                continue
            if reads[member.name] > sum(1 for name in _member_reads(member) if name == member.name):
                continue
            out.append(f"{module}.{qualname} (line {member.lineno})")
    return out


def test_every_member_has_a_reader():
    assert _unread_members(_source_trees(), MEMBER_ALLOWED) == []


def test_every_allowed_member_is_defined_and_unread():
    """A member that is deleted, or that code starts to read, leaves the list."""
    unread = {entry.split(" ")[0] for entry in _unread_members(_source_trees())}
    assert unread == set(MEMBER_ALLOWED)


def test_a_member_left_behind_is_found():
    trees = {
        "a": ast.parse(
            "class Label:\n"
            "    def __repr__(self):\n        return self.used()\n\n"
            "    def used(self):\n        return 0\n\n"
            "    def unused(self):\n        return 1\n\n"
            "    @property\n    def size(self):\n        return 2\n\n"
            "    @classmethod\n    def build(cls):\n        return cls()\n\n"
            "    def sort_key(self):\n        return 3\n\n"
            "    def again(self, n):\n        return self.again(n - 1) if n else 0\n"
        ),
        "b": ast.parse(
            "import operator\n\n"
            "from .a import Label\n\n"
            "def run(labels):\n"
            "    return sorted(labels, key=operator.methodcaller('sort_key')), Label.build()\n"
        ),
    }
    unread = ["a.Label.unused (line 8)", "a.Label.size (line 12)", "a.Label.again (line 22)"]
    assert _unread_members(trees) == unread
    assert _unread_members(trees, allowed=("a.Label.size",)) == [unread[0], unread[2]]


def _json_writers(trees: dict[str, ast.Module]) -> list[str]:
    """module.Class of each class whose body defines to_json."""
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(name == "to_json" for name, _ in _definitions(node))
    )


def test_only_the_record_base_and_one_override_write_json():
    """A record's JSON is its fields in order (_Record.to_json), which reads a
    partition's; FencedRunner alone names its JSON keys apart from its fields."""
    expected = ["abacus.FencedRunner", "partitions.Partition", "partitions._Record"]
    assert _json_writers(_source_trees()) == expected
