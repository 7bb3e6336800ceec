"""Every name defined in ``src/qopf`` has a caller in the program.

The program is ``src/qopf`` plus the benchmark driver ``perfbench``.  A
module-level function or class, or a method of a module-level class,
counts as called when its name appears somewhere in that code as a name,
an attribute, or an identifier-like string constant (the
``tracer.wrap(module, "name", ...)`` targets of the benchmark).  Docstrings
and other bare string statements are not code and do not count.  A public
name that only the tests use belongs in the tests; a private ``_name``
that nothing in the program uses is dead code.  Dunder methods are called
by Python itself and are not checked.  An allowlisted name must still be
defined and must still lack a caller: once the program calls it, its entry
is stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "qopf"
PROGRAM = [*sorted(SOURCE.glob("*.py")), *sorted((ROOT / "perfbench").rglob("*.py"))]

# Public names kept without a caller in the program, each for a reason.
ALLOWED = {
    "import_matpower": "a library entry point that README documents",
}


def definitions(path, private=False):
    """(qualified name, name) of every public module-level function and
    class of a module, and of every public method of its module-level
    classes; with ``private``, of every ``_name`` one instead, dunder
    methods left out."""
    def wanted(name):
        return not name.startswith("__") and name.startswith("_") == private

    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if wanted(node.name):
            out.append((f"{path.stem}.{node.name}", node.name))
        if isinstance(node, ast.ClassDef):
            out += [(f"{path.stem}.{node.name}.{item.name}", item.name) for item in node.body
                    if isinstance(item, ast.FunctionDef) and wanted(item.name)]
    return out


def referenced_names(path):
    """The names, attributes and identifier-like string constants a file
    uses outside its bare string statements (docstrings among them)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bare = {id(node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)}
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and id(node) not in bare \
                and isinstance(node.value, str) and node.value.isidentifier():
            out.add(node.value)
    return out


def test_every_public_src_name_has_a_caller_in_the_program():
    used = set().union(*(referenced_names(path) for path in PROGRAM))
    defined = [entry for path in sorted(SOURCE.glob("*.py")) for entry in definitions(path)]
    uncalled = [qualified for qualified, name in defined
                if name not in used and name not in ALLOWED]
    assert not uncalled, f"public names only the tests use: {uncalled}"
    assert set(ALLOWED) <= {name for _, name in defined}, "allowlist entry not defined"
    called = sorted(set(ALLOWED) & used)
    assert not called, f"allowlist entries the program calls: {called}"


def test_every_private_src_name_is_used_in_the_program():
    used = set().union(*(referenced_names(path) for path in PROGRAM))
    defined = [entry for path in sorted(SOURCE.glob("*.py"))
               for entry in definitions(path, private=True)]
    assert len(defined) > 40
    unused = [qualified for qualified, name in defined if name not in used]
    assert not unused, f"private names nothing in the program uses: {unused}"
