"""Every name a module imports is used where it is imported.

Runs over ``src/qopf`` and ``tests``.  A name counts as used when it
appears as a name in the scope of its import: the whole module for a
module-level import, the function body for an import inside a function.
The root of an attribute chain such as ``np.zeros`` is a name.
``from __future__`` imports are compiler directives and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [*sorted((ROOT / "src" / "qopf").glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]


def imported_names(statements):
    """(line, bound name) of each import among ``statements``."""
    out = []
    for node in statements:
        if isinstance(node, ast.Import):
            out += [(node.lineno, alias.asname or alias.name.split(".")[0])
                    for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(node.lineno, alias.asname or alias.name) for alias in node.names]
    return out


def unused_imports(path):
    """The names ``path`` imports but never uses, as ``file:line name``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    scopes = [tree] + [node for node in ast.walk(tree)
                       if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    unused = []
    for scope in scopes:
        used = {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}
        unused += [f"{path.relative_to(ROOT)}:{line} {name}"
                   for line, name in imported_names(scope.body) if name not in used]
    return unused


def test_every_import_is_used():
    unused = [entry for path in MODULES for entry in unused_imports(path)]
    assert not unused, f"unused imports: {unused}"
