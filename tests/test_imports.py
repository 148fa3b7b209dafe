"""Every name has one import path: its own module.

Read from the source with `ast`, so nothing is imported: a module imports
no name it never reads, and the package root binds only `__version__`.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "convexchoice"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _unread_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unread = {path.name: _unread_imports(_tree(path)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}


def test_package_root_binds_only_the_version():
    bound = set()
    for node in _tree(PACKAGE / "__init__.py").body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            bound.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    assert bound == {"__version__"}


def test_the_guard_sees_an_unread_import():
    tree = ast.parse("from .dist import Dist, conv_dist\nimport math\n\ndef f(d: Dist):\n    return math.gcd(1, 2)\n")
    assert _unread_imports(tree) == [(1, "conv_dist")]
