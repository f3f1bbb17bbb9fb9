"""Source hygiene that a linter would check, with only the standard library."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "surfdec"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
BENCH = SRC.parents[1] / "bench"
TESTS = Path(__file__).resolve().parent


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


def _unread_fields(sources: list[str], readers: list[str]) -> list[str]:
    """``Class.field`` for each annotated field of a class in ``sources``
    that no source or reader reads as an attribute.

    Reads inside the class's ``__post_init__`` do not count: a field that
    is only validated or derived from configures nothing.
    """
    fields: list[str] = []
    read: set[str] = set()
    for source in sources + readers:
        tree = ast.parse(source)
        validation: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and source in sources:
                        fields.append(f"{node.name}.{stmt.target.id}")
                    elif getattr(stmt, "name", None) == "__post_init__":
                        validation |= {id(n) for n in ast.walk(stmt)}
        read |= {
            n.attr
            for n in ast.walk(tree)
            if isinstance(n, ast.Attribute)
            and isinstance(n.ctx, ast.Load)
            and id(n) not in validation
        }
    return [name for name in fields if name.split(".")[1] not in read]


def test_unread_field_check_sees_unread_fields():
    src = (
        "class C:\n"
        "    a: int\n"
        "    b: int = 0\n"
        "    c: int = 1\n"
        "    def __post_init__(self):\n"
        "        assert self.b >= 0\n"
        "class D:\n"
        "    d: int\n"
        "    e: int\n"
        "def f(cfg):\n"
        "    return cfg.a\n"
    )
    reader = "class E:\n    f: int\nprint(x.d)\n"
    assert _unread_fields([src], [reader]) == ["C.b", "C.c", "D.e"]


def test_every_annotated_field_is_read():
    # a field that nothing in the package or the benchmark reads is a dead
    # option or stale state, such as a table that lost its last reader
    sources = [path.read_text() for path in MODULES]
    readers = [path.read_text() for path in sorted(BENCH.glob("*.py"))]
    assert _unread_fields(sources, readers) == []


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


def _default_uses(defining: list[str], calling: list[str]) -> dict[str, list[int]]:
    """Per defaulted parameter of a function of ``defining``, the number of
    calls of that name in ``calling`` that pass it and that omit it.

    A call matches by the function's name, as ``f(...)`` or ``obj.f(...)``,
    and passes a parameter by keyword or by position; a method's first
    parameter takes no position.  A call that unpacks ``*args`` or
    ``**kwargs`` states neither and is skipped.  Keys read ``name(param)``
    and values ``[passed, omitted]``.
    """
    defaults: dict[str, list[tuple[int | None, str]]] = {}
    for source in defining:
        tree = ast.parse(source)
        methods = {
            id(stmt)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            for stmt in node.body
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args]
            first = len(positional) - len(a.defaults)
            skip = 1 if id(node) in methods else 0
            defaults.setdefault(node.name, []).extend(
                [(i - skip, arg.arg) for i, arg in enumerate(positional) if i >= first]
                + [
                    (None, arg.arg)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                    if default is not None
                ]
            )
    uses = {
        f"{name}({param})": [0, 0]
        for name, entries in defaults.items()
        for _pos, param in entries
    }
    for source in calling:
        for call in ast.walk(ast.parse(source)):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if name not in defaults:
                continue
            if any(isinstance(x, ast.Starred) for x in call.args) or any(
                k.arg is None for k in call.keywords
            ):
                continue
            keywords = {k.arg for k in call.keywords}
            for pos, param in defaults[name]:
                passed = param in keywords or (pos is not None and pos < len(call.args))
                uses[f"{name}({param})"][0 if passed else 1] += 1
    return uses


def test_default_use_check_counts_passes_and_omissions():
    defining = (
        "def f(a, b=1, c=2, *, d=3, e=4):\n"
        "    pass\n"
        "class C:\n"
        "    def m(self, g=5, h=6):\n"
        "        pass\n"
    )
    calling = (
        "f(0, 9, d=1)\n"
        "f(0, 9, 8, d=2)\n"
        "f(*xs, **kw)\n"
        "C().m(7)\n"
        "obj.m()\n"
    )
    assert _default_uses([defining], [calling]) == {
        "f(b)": [2, 0],
        "f(c)": [1, 1],
        "f(d)": [2, 0],
        "f(e)": [0, 2],
        "m(g)": [1, 1],
        "m(h)": [0, 2],
    }


def _callers() -> list[str]:
    # calls in the tests count: ``main(argv)`` is passed only by them
    paths = [*SRC.rglob("*.py"), *BENCH.rglob("*.py"), *TESTS.rglob("*.py")]
    return [path.read_text() for path in sorted(paths)]


def test_every_default_is_passed_by_some_call():
    # a default no call changes is a constant with a parameter's cost
    uses = _default_uses([path.read_text() for path in MODULES], _callers())
    assert [key for key, (passed, _omitted) in uses.items() if not passed] == []


def test_every_default_is_omitted_by_some_call():
    # a default every call overrides is a required parameter in disguise
    uses = _default_uses([path.read_text() for path in MODULES], _callers())
    assert [key for key, (_passed, omitted) in uses.items() if not omitted] == []


#: builtin value types: a call ``x.name(...)`` on one of them cannot be told
#: from a call of a library function ``name`` by the default-use checks,
#: which match calls by name
BUILTIN_TYPES = (set, dict, list, str, tuple, bytes, int, float)

#: clashing library names that stay: ``bench/run.py`` imports
#: ``irmwpm.decode`` by name (bytes has ``decode``)
FIXED_NAMES = {"decode": ("irmwpm", "experiments")}


def _builtin_method_names(source: str) -> list[str]:
    """Functions and methods of ``source`` that share a name with a public
    method of a builtin value type."""
    builtin = {name for t in BUILTIN_TYPES for name in dir(t) if not name.startswith("_")}
    clashes = sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name in builtin
    )
    return [f"{name} (line {line})" for line, name in clashes]


def test_builtin_method_name_check_sees_clashes():
    src = (
        "class Report:\n"
        "    def add(self, name):\n"
        "        pass\n"
        "    def record(self, name):\n"
        "        pass\n"
        "def split(s):\n"
        "    def count():\n"
        "        pass\n"
        "def __init__():\n"
        "    pass\n"
    )
    assert _builtin_method_names(src) == [
        "add (line 2)",
        "split (line 6)",
        "count (line 7)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_is_named_like_a_builtin_method(path):
    # ``set.add(...)`` would count as a call of a library ``add``
    clashes = _builtin_method_names(path.read_text())
    assert [c for c in clashes if c.split()[0] not in FIXED_NAMES] == []


def test_fixed_names_are_called_only_on_their_modules():
    # so that no builtin method's call is counted as theirs
    strays = []
    for source in _callers():
        for call in ast.walk(ast.parse(source)):
            func = getattr(call, "func", None)
            if isinstance(func, ast.Attribute) and func.attr in FIXED_NAMES:
                owner = getattr(func.value, "id", None)
                if owner not in FIXED_NAMES[func.attr]:
                    strays.append(f"{owner}.{func.attr} (line {call.lineno})")
    assert strays == []
