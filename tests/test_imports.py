"""No dttokit module imports another one inside a function body.

A function-level import hides a dependency from the module graph and is
how an import cycle gets papered over.  The one cycle left is the
``dttokit verify`` command: ``cli.cmd_verify`` imports ``verify`` and
``verify.build_catalog`` imports ``cli``.  It goes away with ROADMAP
item 1, whose span recorder lets ``verify`` stop calling the CLI's
dispatcher; the allowance below must then shrink to nothing.

Every private module-level helper also has a caller inside the package,
so a helper cannot outlive its last caller.  A ``_``-prefixed name that
one module imports from another is listed below; the list must match the
code exactly, so it can only shrink as helpers move to their one reader.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dttokit"
PACKAGE = "dttokit"

KNOWN_CYCLE = {("cli.cmd_verify", "verify"), ("verify.build_catalog", "cli")}

# (importing module, module imported from, private name)
KNOWN_PRIVATE_IMPORTS = {
    ("cli", "fourier", "_check_tol"),
    ("cli", "fourier", "_fold_wrappers"),
    ("cli", "oracle", "_oracle_for"),
    ("minmod", "operators", "_dtto_rectangular"),
    ("modelspace", "fourier", "_check_tol"),
    ("modelspace", "fourier", "_factor_width"),
    ("modelspace", "fourier", "_stack_windows"),
    ("modelspace", "fourier", "_takenaka_windows"),
    ("operators", "fourier", "_coeffs_over"),
    ("oracle", "fourier", "_divides"),
    ("oracle", "fourier", "_fold_wrappers"),
    ("oracle", "operators", "_hankel_view"),
    ("verify", "oracle", "_oracle_for"),
}


def _package_modules(node) -> list:
    """The dttokit modules an import statement names, relative to the
    package ('' for the package itself)."""
    if isinstance(node, ast.ImportFrom) and node.level > 0:
        return [node.module] if node.module else [a.name for a in node.names]
    if isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        names = [a.name for a in node.names]
    return [n[len(PACKAGE) + 1 :] for n in names if n == PACKAGE or n.startswith(PACKAGE + ".")]


def function_level_imports(source: str, module: str) -> list:
    """(qualified function name, imported module) for every import of a
    dttokit module inside a function body of the given source."""
    found = []

    def visit(node, scope, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and in_function:
                found.extend((".".join([module] + scope), m) for m in _package_modules(child))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], True)
            elif isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], in_function)
            else:
                visit(child, scope, in_function)

    visit(ast.parse(source), [], False)
    return found


def test_the_walker_sees_nested_and_absolute_imports():
    source = (
        "import dttokit.fourier\n"
        "from . import oracle\n"
        "def f():\n"
        "    import numpy\n"
        "    from .cli import main\n"
        "    if True:\n"
        "        import dttokit.oracle as o\n"
        "class C:\n"
        "    def g(self):\n"
        "        from dttokit import fourier\n"
        "        from . import minmod, operators\n"
    )
    assert function_level_imports(source, "m") == [
        ("m.f", "cli"),
        ("m.f", "oracle"),
        ("m.C.g", ""),
        ("m.C.g", "minmod"),
        ("m.C.g", "operators"),
    ]


def test_no_function_level_imports_of_package_modules():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(function_level_imports(path.read_text(encoding="utf-8"), path.stem))
    assert found - KNOWN_CYCLE == set()
    # the allowance names only imports that still exist
    assert KNOWN_CYCLE <= found


def private_functions_without_callers(sources: dict) -> list:
    """(module, name) of every module-level function whose name starts with
    a single underscore and that no code in the given sources reads, other
    than the function's own body.  ``sources`` maps module names to source
    text; a read is a name or an attribute with the function's name."""
    defined, read = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and own.startswith("_"):
                if not own.startswith("__"):
                    defined.append((module, own))
            for sub in ast.walk(node):
                name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
                if name is not None and name != own:
                    read.add(name)
    return [(module, name) for module, name in defined if name not in read]


def test_the_caller_scan_sees_unread_and_self_recursive_helpers():
    sources = {
        "a": (
            "def _used(): pass\n"
            "def _unused(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "def __dunder__(): pass\n"
            "class C:\n"
            "    def _method(self): pass\n"
        ),
        "b": "from .a import _used\nimport a\nx = a._used() + _used()\n",
    }
    assert private_functions_without_callers(sources) == [("a", "_unused"), ("a", "_recursive")]


def test_every_private_helper_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert private_functions_without_callers(sources) == []


def private_name_imports(source: str, module: str) -> list:
    """(module, imported-from module, name) for every name with a single
    leading underscore that the given source imports from a dttokit
    module, at any depth ('' for the package itself)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        # 'from . import x' names modules, not names inside one
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            found.extend(
                (module, origin, a.name)
                for origin in _package_modules(node)
                for a in node.names
                if a.name.startswith("_") and not a.name.startswith("__")
            )
    return found


def test_the_private_import_scan_sees_relative_absolute_and_nested_imports():
    source = (
        "from numpy import _private\n"
        "from .fourier import _coeffs_over, window_add, __version__\n"
        "from dttokit.oracle import _oracle_for as oracle_for\n"
        "from dttokit import _hidden\n"
        "def f():\n"
        "    from .operators import _hankel_view\n"
    )
    assert sorted(private_name_imports(source, "m")) == [
        ("m", "", "_hidden"),
        ("m", "fourier", "_coeffs_over"),
        ("m", "operators", "_hankel_view"),
        ("m", "oracle", "_oracle_for"),
    ]


def test_private_names_imported_across_modules_are_the_known_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found.update(private_name_imports(path.read_text(encoding="utf-8"), path.stem))
    assert found == KNOWN_PRIVATE_IMPORTS
