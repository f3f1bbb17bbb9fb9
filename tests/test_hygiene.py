"""Source hygiene that a linter would check, with only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "surfdec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = SRC.parents[1] / "bench"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    # ``np.pi`` reads ``np`` as a Name node too
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = [name for name in imported if name not in used]
    return [f"{name} (line {imported[name]})" for name in unused]


def test_unused_import_check_sees_unused_names():
    src = "import os\nimport numpy as np\nfrom math import pi, tau\nprint(np.pi, tau)\n"
    assert _unused_imports(src) == ["os (line 1)", "pi (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def _unread_fields(sources: list[str], cls: str) -> list[str]:
    """Annotated fields of class ``cls`` that no source reads as an attribute.

    Reads inside the class's ``__post_init__`` do not count: a field that
    is only validated configures nothing.
    """
    fields: list[str] = []
    read: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        validation: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == cls:
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign):
                        fields.append(stmt.target.id)
                    elif getattr(stmt, "name", None) == "__post_init__":
                        validation |= {id(n) for n in ast.walk(stmt)}
        read |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)
            and id(n) not in validation
        }
    return [name for name in fields if name not in read]


def test_unread_field_check_sees_unread_fields():
    src = (
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 1\n"
        "    def __post_init__(self):\n"
        "        assert self.b >= 0\n"
        "def f(cfg):\n"
        "    return cfg.a\n"
    )
    assert _unread_fields([src], "C") == ["b", "c"]


def test_every_simconfig_field_is_read():
    # a configuration field nothing reads is a dead option
    sources = [path.read_text() for path in MODULES]
    assert _unread_fields(sources, "SimConfig") == []


def _unread_names(sources: list[str], names: list[str]) -> list[str]:
    """Names that no source reads, as a variable or as an attribute.

    Definitions and imports do not count: an export that nothing calls is
    dead code, whatever re-exports it.
    """
    read: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [name for name in names if name not in read]


def test_unread_name_check_sees_unread_names():
    src = (
        "from m import a, b\n"
        "def c():\n"
        "    return a\n"
        "class D:\n"
        "    pass\n"
        "print(m.e)\n"
    )
    assert _unread_names([src], ["a", "b", "c", "D", "e"]) == ["b", "c", "D"]


def test_every_export_is_read():
    # an exported helper that neither the package nor the benchmark uses
    # is an interface to maintain for nothing
    import surfdec

    paths = MODULES + sorted(BENCH.glob("*.py"))
    sources = [path.read_text() for path in paths]
    assert _unread_names(sources, surfdec.__all__) == []


def _unread_definitions(defining: list[str], reading: list[str]) -> list[str]:
    """Module-level functions and classes of ``defining`` that no source of
    ``reading`` reads."""
    defined = [
        node.name
        for source in defining
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    ]
    return _unread_names(reading, defined)


def test_unread_definition_check_sees_unread_definitions():
    src = (
        "def used():\n"
        "    def nested():\n"
        "        pass\n"
        "def unused():\n"
        "    return used()\n"
        "class Kept:\n"
        "    def method(self):\n"
        "        pass\n"
        "class Dropped:\n"
        "    pass\n"
        "value = Kept\n"
    )
    assert _unread_definitions([src], [src]) == ["unused", "Dropped"]


def test_every_module_level_definition_is_read():
    # a function or class that neither the package nor the benchmark reads
    # is dead code, whether or not it is exported
    paths = MODULES + sorted(BENCH.glob("*.py"))
    sources = [path.read_text() for path in paths]
    defining = [path.read_text() for path in MODULES]
    assert _unread_definitions(defining, sources) == []


def _unread_parameters(source: str) -> list[str]:
    """Function parameters that the function's body never reads.

    ``self``, ``cls`` and ``_``-prefixed names are skipped; a read inside a
    nested function counts, a default value or an annotation does not.
    """
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unread += [
            f"{node.name}({arg.arg}) (line {node.lineno})"
            for arg in params
            if arg is not None
            and arg.arg not in read
            and arg.arg not in ("self", "cls")
            and not arg.arg.startswith("_")
        ]
    return unread


def test_unread_parameter_check_sees_unread_parameters():
    src = (
        "def f(a, b, *args, c=1, _d=2, **kw):\n"
        "    def inner():\n"
        "        return a\n"
        "    return inner() + kw['x']\n"
        "class C:\n"
        "    def m(self, e: int = 3):\n"
        "        e = 4\n"
        "    @classmethod\n"
        "    def k(cls, g=None):\n"
        "        return g\n"
    )
    assert _unread_parameters(src) == [
        "f(b) (line 1)",
        "f(args) (line 1)",
        "f(c) (line 1)",
        "m(e) (line 6)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    # a parameter the body never reads is an argument every caller passes
    # for nothing
    assert _unread_parameters(path.read_text()) == []
