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
The names the package itself binds are pinned the same way, so the public
API can only shrink.
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
    ("modelspace", "fourier", "_check_tol"),
    ("modelspace", "fourier", "_takenaka_windows"),
    ("operators", "fourier", "_coeffs_over"),
    ("oracle", "fourier", "_fold_wrappers"),
    ("oracle", "operators", "_hankel_view"),
    ("verify", "oracle", "_oracle_for"),
}

# every name dttokit/__init__.py binds
KNOWN_PUBLIC_NAMES = {
    "BlaschkeProduct", "BlaschkeQuotient", "Conjugate", "LaurentPoly", "MinModReport",
    "PiecewiseArcs", "SumConst", "SymbolClassError", "SymbolExpr", "__version__",
    "blaschke_from_json", "blaschke_to_json", "compressed_shift", "conjugated",
    "constant_symbol", "ess_range", "galerkin_sweep", "inner_symbol", "min_modulus_bounds",
    "min_modulus_corner", "min_modulus_toeplitz_hankel", "min_modulus_unimodular",
    "normal_dtto_bounds", "oracle_m_compressed_shift", "oracle_m_dual_shift",
    "oracle_rank_one_spectrum", "shift_symbol", "sigma_min", "symbol_from_json",
    "symbol_to_json", "tm_basis", "truncated_toeplitz_norm_hankel",
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


def bound_names(source: str) -> set:
    """Every name a module's top level binds by import or assignment."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_the_binding_scan_sees_imports_assignments_and_definitions():
    source = (
        "from .fourier import a, b as c\n"
        "import numpy.linalg\n"
        "x = 1\n"
        "y: int = 2\n"
        "def f(): z = 3\n"
        "class K: w = 4\n"
    )
    assert bound_names(source) == {"a", "c", "numpy", "x", "y", "f", "K"}


def test_the_public_names_are_the_known_ones():
    source = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert bound_names(source) == KNOWN_PUBLIC_NAMES


def package_reads(source: str) -> set:
    """Every name a script reads from the dttokit package: the names it
    imports ``from dttokit`` and the attributes it reads off ``dk``, the
    package as the benchmark binds it (also as ``self.dk`` or ``g.dk``)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == PACKAGE:
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if getattr(base, "id", None) == "dk" or getattr(base, "attr", None) == "dk":
                names.add(node.attr)
    return names


def test_the_package_read_scan_sees_imports_and_dk_attributes():
    source = (
        "import dttokit\n"
        "from dttokit import cli, tm_basis\n"
        "from dttokit.fourier import window_add\n"
        "dk = dttokit\n"
        "def f(g):\n"
        "    from dttokit import sigma_min\n"
        "    return dk.LaurentPoly, g.dk.symbol_to_json, g.other.x, dk.BlaschkeProduct.window\n"
    )
    assert package_reads(source) == {
        "cli", "tm_basis", "sigma_min", "LaurentPoly", "symbol_to_json", "BlaschkeProduct"
    }


def test_the_benchmark_and_the_demos_read_only_public_names():
    root = SRC.parent.parent
    submodules = {path.stem for path in SRC.glob("*.py")}
    for folder in ("perfbench", "demos"):
        reads = {
            (path.name, name)
            for path in sorted((root / folder).glob("*.py"))
            for name in package_reads(path.read_text(encoding="utf-8"))
        }
        assert reads, f"no package reads found under {folder}/"
        assert {r for r in reads if r[1] not in submodules | KNOWN_PUBLIC_NAMES} == set()
