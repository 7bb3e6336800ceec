"""Every exception the program defines is an input error or a divergence.

``cli.main`` turns a ``grid.CaseError`` into exit 1 and a
``saddle.DivergenceError`` into exit 2; any other exception class defined
in ``src/qopf`` would end a command in a traceback.
"""

import ast
import importlib
from pathlib import Path

from qopf.grid import CaseError
from qopf.saddle import DivergenceError

SOURCE = Path(__file__).resolve().parents[1] / "src" / "qopf"


def exception_classes():
    """(qualified name, class) of every class defined at module level in
    ``src/qopf`` that derives from ``BaseException``."""
    out = []
    for path in sorted(SOURCE.glob("*.py")):
        module = importlib.import_module(f"qopf.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    out.append((f"{path.stem}.{node.name}", cls))
    return out


def test_every_exception_class_is_a_case_error_or_the_divergence():
    found = exception_classes()
    assert {name for name, _ in found} >= {"grid.CaseError", "grid.ValidationError",
                                           "saddle.DivergenceError"}
    stray = [name for name, cls in found
             if not issubclass(cls, CaseError) and cls is not DivergenceError]
    assert not stray, f"exception classes outside CaseError: {stray}"
