"""Source hygiene of src/ergodic, checked with the standard-library ast.

Two rules keep dead code from piling up: every module-level import is
used by its module, and every function, class and method is referenced
somewhere outside its own body, in src/, tests/ or bench/.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ergodic"
SEARCHED = ("src", "tests", "bench")


def _modules():
    return [(path, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _references(tree):
    """(identifier, line) of every name, attribute, imported name and identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
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


def test_every_definition_is_referenced():
    uses: dict[str, list[tuple[Path, int]]] = {}
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            for name, line in _references(ast.parse(path.read_text())):
                uses.setdefault(name, []).append((path, line))
    unreferenced = []
    for path, tree in _modules():
        for node in _definitions(tree):
            if node.name.startswith("__"):
                continue
            outside = [
                (p, line) for p, line in uses.get(node.name, ())
                if p != path or not node.lineno <= line <= node.end_lineno
            ]
            if not outside:
                unreferenced.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreferenced, "unreferenced: " + ", ".join(unreferenced)
