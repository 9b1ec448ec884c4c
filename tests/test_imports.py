"""Every name a source module imports is referenced in that module, every
private helper is used, every decomposition step is tested, no module
reads the environment nor harness a size guard, only the readers of
outside data run the public permutation check, README's size table names
every guard, and importing the package loads neither dataclasses nor
inspect."""

import ast
import os
import re
import subprocess
import sys
from itertools import takewhile
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "lfgraph"


@pytest.mark.parametrize("name", sorted(
    p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(name):
    tree = ast.parse((SRC / name).read_text(), name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, f"{name} never uses {sorted(imported - used)}"


def _private_definitions(tree):
    """(name, node) of each _-prefixed top-level function, class or
    constant, dunders excepted."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def test_no_orphaned_private_helpers():
    """Every private top-level name in src/lfgraph is referenced somewhere
    in src/lfgraph outside its own definition, so a deletion cannot leave
    a helper behind."""
    trees = [ast.parse(p.read_text(), p.name) for p in sorted(SRC.glob("*.py"))]
    uses: dict[str, set[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    orphans = []
    for tree in trees:
        for name, node in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(node)}
            if not uses.get(name, set()) - inside:
                orphans.append(name)
    assert not orphans, f"never referenced: {sorted(orphans)}"


def test_every_decomposition_step_is_named_in_tests():
    """Each step name autos raises DecompositionError with appears, quoted,
    in a test file, so a step no test names cannot stay behind."""
    steps = set(re.findall(r'DecompositionError\(\s*"([^"]+)"',
                           (SRC / "autos.py").read_text()))
    tests = "".join(p.read_text() for p in TESTS.glob("test_*.py")
                    if p.name != "test_imports.py")
    assert steps, "no DecompositionError step found in autos.py"
    assert not {s for s in steps if f'"{s}"' not in tests}


def test_settings_and_guards_are_read_in_one_place():
    """No module reads os.environ, so every input is an argument, and
    harness names no MAX_* guard and compares nothing with a tuple of
    integer literals such as a (q, n) size, so verify never compares a
    size itself: the library raises GuardError and the harness reports
    the skip."""
    for path in sorted(SRC.glob("*.py")):
        named = set()
        tree = ast.parse(path.read_text(), path.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named |= {a.name for a in node.names}
        assert "environ" not in named, f"{path.name} reads os.environ"
        if path.name == "harness.py":
            guards = sorted(n for n in named if n.startswith("MAX_"))
            assert not guards, f"harness.py names {guards}"
            sizes = [node.lineno for node in ast.walk(tree)
                     if isinstance(node, ast.Compare)
                     and any(map(_is_int_tuple, ast.walk(node)))]
            assert not sizes, f"harness.py compares sizes at lines {sizes}"


def _is_int_tuple(node):
    """A tuple of integer literals, such as the (2, 3) of a size test."""
    return isinstance(node, ast.Tuple) and bool(node.elts) and all(
        isinstance(e, ast.Constant) and type(e.value) is int for e in node.elts)


def _calls_by_function(tree):
    """(name of the innermost enclosing function or None, call node) for
    each call in tree."""
    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                yield owner, child
            yield from visit(child, owner)
    yield from visit(tree, None)


def test_permutations_are_checked_where_outside_data_enters():
    """The public check VertexPerm(g, image) runs only in the readers of
    outside data: tau_from_table, perm_from_json and decomposition_from_json.
    Every other permutation autos builds it has proved one, and builds
    through VertexPerm._of unchecked; harness builds none itself.  So a new
    internal builder cannot quietly pay the check again."""
    readers = {"tau_from_table", "perm_from_json", "decomposition_from_json"}
    checked = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        for owner, call in _calls_by_function(tree):
            fn = call.func
            public = isinstance(fn, ast.Name) and fn.id == "VertexPerm"
            unchecked = (isinstance(fn, ast.Attribute) and fn.attr == "_of"
                         and isinstance(fn.value, ast.Name)
                         and fn.value.id == "VertexPerm")
            where = f"{path.name}:{call.lineno} in {owner}"
            if path.name == "harness.py":
                assert not (public or unchecked), f"{where} builds a perm"
            if public:
                assert owner in readers, f"{where} runs the public check"
                checked.add(owner)
    assert checked == readers


def test_readme_names_every_guard():
    """Each row of README's "Supported sizes" table names a module.MAX_*
    constant with its value, and each module-level MAX_* in src/lfgraph
    has a row, so a retuned guard cannot leave the table behind."""
    text = (TESTS.parent / "README.md").read_text()
    lines = text[text.index("## Supported sizes"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| limit |"))
    named = {}
    for row in takewhile(lambda line: line.startswith("|"), lines[start + 2:]):
        m = re.match(r"\| `(\w+\.MAX_\w+)` = (\d+) \|", row)
        assert m, f"README row names no guard constant: {row}"
        named[m[1]] = int(m[2])
    guards = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), path.name).body:
            if isinstance(node, ast.Assign):
                guards |= {f"{path.stem}.{t.id}": ast.literal_eval(node.value)
                           for t in node.targets
                           if isinstance(t, ast.Name) and t.id.startswith("MAX_")}
    assert named == guards


def test_import_loads_no_dataclasses_nor_inspect():
    """A cold interpreter that imports every module never loads dataclasses,
    which brings inspect, ast, dis and tokenize into each process start."""
    code = ("import sys, lfgraph.autos, lfgraph.gf, lfgraph.graph, "
            "lfgraph.harness, lfgraph.linalg; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    path = os.pathsep.join(filter(None, (str(SRC.parent),
                                         os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path}).stdout
    assert out == "[]\n"
