"""Source hygiene: every name a module imports is read somewhere in it,
no module of the package reads another's private name, every public
top-level function and class of the package is read somewhere outside
the tests, the package writes files in place only where it must, and one
function decides what a training step trains."""
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


def private_imports(source: str) -> list[str]:
    """Other modules' private names a module reads: ``from m import _name``,
    or ``m._name`` where ``m`` is a name an import binds (dunders aside)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    bound, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
                if isinstance(node, ast.ImportFrom) and private(alias.name):
                    found.append((node.lineno, alias.name))
    found += [(n.lineno, f"{n.value.id}.{n.attr}") for n in ast.walk(tree)
              if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in bound and private(n.attr)]
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_no_private_name_of_another_module():
    """A name one module shares with another is public, so the public-API
    rule sees who reads it."""
    found = {p.name: names for p in SRC
             if (names := private_imports(p.read_text(encoding="utf-8")))}
    assert found == {}


def test_scanner_flags_a_private_import():
    source = ("from .m import _a, b\nfrom . import tensor as T\nimport numpy as np\n"
              "T._c(b)\nnp.__version__\nself._d\n_e._f\n"
              "def g():\n    from .n import _h\n    return T.i\n")
    assert private_imports(source) == ["line 1: _a", "line 4: T._c", "line 9: _h"]


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


def calls(source: str):
    """Each call by a bare or attribute name, as (call node, the name it
    calls, the function it is in or ``<module>``), in source order."""
    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
            yield node, getattr(node.func, "id", None) or node.func.attr, where
        for child in ast.iter_child_nodes(node):
            yield from visit(child, where)
    return visit(ast.parse(source), "<module>")


def plain_writers(source: str) -> list[str]:
    """Each call that writes a file in place, as ``function:call``: ``open``
    (or ``path.open``) with a writing mode or a mode that is not a literal,
    and ``write_text``/``write_bytes``. ``open`` without a mode reads."""
    found = []
    for node, name, where in calls(source):
        pos = 1 if isinstance(node.func, ast.Name) else 0   # open(path, mode), p.open(mode)
        modes = node.args[pos:pos + 1] + [k.value for k in node.keywords if k.arg == "mode"]
        reads = not modes or (isinstance(modes[0], ast.Constant)
                              and isinstance(modes[0].value, str)
                              and not set(modes[0].value) & set("wax+"))
        if name in ("write_text", "write_bytes") or (name == "open" and not reads):
            found.append(f"{where}:{name}")
    return found


# Every other file the package writes goes through ``config.atomic_write``.
PLAIN_WRITERS = sorted([
    "config.py:atomic_write:open",         # the temporary file it renames
    # outputs the user names, which may be a pipe or a device
    "pipeline.py:evaluate_checkpoint:open",                  # eval --scores-out
    "cli.py:cmd_generate:open",                              # generate --out
    "cli.py:cmd_heatmap:write_text", "cli.py:cmd_heatmap:open",  # heatmap --out
])


def test_every_other_writer_is_atomic():
    found = sorted(f"{p.name}:{w}" for p in SRC
                   for w in plain_writers(p.read_text(encoding="utf-8")))
    assert found == PLAIN_WRITERS


def test_scanner_finds_plain_writers():
    source = ("def f(p, m):\n"
              "    open(p)\n    open(p, 'rb')\n    open(p, encoding='utf-8')\n"
              "    p.open()\n    p.open('r')\n"
              "    open(p, 'a')\n    open(p, mode=m)\n    p.open('wb')\n"
              "    p.write_text('x')\n"
              "    def g():\n        p.write_bytes(b'')\n"
              "open('q', 'r+')\n")
    assert plain_writers(source) == ["f:open", "f:open", "f:open", "f:write_text",
                                     "g:write_bytes", "<module>:open"]


def tape_builders(source: str) -> list[str]:
    """The functions that construct a ``Tape`` (``Tape(...)``, ``T.Tape(...)``)."""
    return [where for _, name, where in calls(source) if name == "Tape"]


def requires_grad_lines(source: str) -> list[int]:
    """Lines that read or write a ``requires_grad`` attribute, or pass one
    as a keyword."""
    return sorted({n.lineno for n in ast.walk(ast.parse(source))
                   if isinstance(n, ast.Attribute) and n.attr == "requires_grad"
                   or isinstance(n, ast.keyword) and n.arg == "requires_grad"})


def test_fit_alone_decides_what_trains():
    """A step's tape is opened on the parameter map ``fit`` is given, and
    nowhere else; no tensor carries a mark of its own that says it trains."""
    builders = sorted(f"{p.name}:{w}" for p in SRC
                      for w in tape_builders(p.read_text(encoding="utf-8")))
    assert builders == ["train.py:fit"]
    flags = {p.name: lines for p in SRC
             if (lines := requires_grad_lines(p.read_text(encoding="utf-8")))}
    assert flags == {}


def test_scanner_finds_tapes_and_trainability_flags():
    source = ("def fit(ps):\n    with Tape(ps) as tape:\n        pass\n"
              "def other():\n    T.Tape([])\n    Taped()\n    tape = T.Tape\n"
              "x.requires_grad = True\nif y.requires_grad:\n    pass\n"
              "Tensor(0, requires_grad=False)\nrequires_grad = 1\n")
    assert tape_builders(source) == ["fit", "other"]
    assert requires_grad_lines(source) == [8, 9, 11]
