"""Source hygiene: every name a module imports is read somewhere in it,
and every public top-level function and class of the package is read
somewhere outside the tests."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "quarts").glob("*.py"))
MODULES = SRC + sorted((ROOT / "tests").glob("*.py"))
# what a run reads: the package itself and the benchmark that drives it
READERS = SRC + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded (``__future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    found = {f"{p.parent.name}/{p.name}": unused for p in MODULES
             if (unused := unused_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_scanner_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("from a.b import c as d\nimport e.f\nd(e.f)\n") == []


def public_definitions(source: str) -> list[str]:
    """Public functions and classes defined at a module's top level."""
    return [n.name for n in ast.parse(source).body
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and not n.name.startswith("_")]


def names_read(source: str) -> set[str]:
    """Names a module loads, as a bare name, an attribute or the original
    name of an aliased import (``knn as knn_search`` reads ``knn``)."""
    read = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            read.add(n.id)
        elif isinstance(n, ast.Attribute):
            read.add(n.attr)
        elif isinstance(n, ast.alias) and n.asname:
            read.add(n.name)
    return read


def test_no_public_api_only_tests_use():
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in READERS))
    unread = {f"{p.name}: {name}" for p in SRC
              for name in public_definitions(p.read_text(encoding="utf-8"))
              if name not in read}
    assert unread == set()


def test_scanner_flags_an_unread_definition():
    source = ("from .m import knn as knn_search\n"
              "def used(): pass\ndef unused(): pass\nclass _Private: pass\n"
              "used()\nknn_search()\nobj.attr_read\n")
    assert public_definitions(source) == ["used", "unused"]
    read = names_read(source)
    assert {"used", "knn", "attr_read"} <= read and "unused" not in read
