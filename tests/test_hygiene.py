"""Source hygiene of src/ergodic, checked with the standard-library ast.

Four rules keep dead code from piling up: every module-level import is
used by its module, every function, class and method is referenced
somewhere outside its own body, in src/, tests/ or bench/, only the few
names in TEST_ONLY may have their every reference in tests/, and every
attribute a class body binds (a dataclass field, a class constant) is
read as an attribute somewhere in src/ or bench/. A string that spells
an identifier counts as a reference only in bench/, where the tracer
names what it patches; elsewhere such a string is data (a pattern name,
a preset) that happens to share a definition's name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ergodic"
SEARCHED = ("src", "tests", "bench")

# definitions that may be referenced from tests/ only, and why each stays in src/
TEST_ONLY = {
    "axiom_holds": "README documents it as the per-axiom audit of an expansion",
    "qtype_prefix_realized": "README documents it as the audit of an omitted type",
    "check_pi2minus": "the reference for the shape of every emitted axiom",
    "class_probability": "the reference for the blowup sampler's class law",
}

# definitions that a library calls by name, and which library
CALLED_BY_LIBRARY = {
    "error": "argparse calls it",
}


def _modules():
    return [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _references(tree, strings: bool):
    """(identifier, line) of every name, attribute and imported name.

    With `strings`, every string constant that spells an identifier too.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (n for n in node.body if isinstance(n, ast.FunctionDef))


def test_no_unused_module_imports():
    unused = []
    for path, tree in _modules():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                loaded |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = (alias.asname or alias.name).partition(".")[0]
                if bound not in loaded:
                    unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, "unused imports: " + ", ".join(unused)


def _unreferenced(searched) -> list[str]:
    """Definitions in src/ergodic with no reference outside their own body in `searched`."""
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in searched:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text()), top == "bench"):
                uses.setdefault(name, []).append((path, line))
    unreferenced = []
    for path, tree in _modules():
        for node in _definitions(tree):
            if node.name.startswith("__") or node.name in CALLED_BY_LIBRARY:
                continue
            outside = [
                (p, line) for p, line in uses.get(node.name, ())
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    return unreferenced


def test_every_definition_is_referenced():
    unreferenced = _unreferenced(SEARCHED)
    assert not unreferenced, "unreferenced: " + ", ".join(unreferenced)


def test_no_definition_is_test_only():
    # a name only tests call belongs in the tests, as their oracle
    test_only = [d for d in _unreferenced(("src", "bench")) if d.split()[-1] not in TEST_ONLY]
    assert not test_only, "referenced only from tests/: " + ", ".join(test_only)


def _class_attributes(cls: ast.ClassDef):
    """(name, line) of every attribute a class body binds by annotation or assignment."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign):
            targets = [node.target]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        else:
            continue
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("__"):
                yield target.id, node.lineno


def test_every_class_attribute_is_read():
    # a field or class attribute that only tests read is computed for no caller
    read = {
        node.attr
        for top in ("src", "bench")
        for path in sorted((ROOT / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}:{line} {cls.name}.{name}"
        for path, tree in _modules()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name, line in _class_attributes(cls)
        if name not in read
    ]
    assert not unread, "class attributes never read: " + ", ".join(unread)
