"""Every qopf name that README quotes as code exists.

A name counts when it is written ``module.name`` or ``qopf.module.name``,
for one of the qopf modules, inside an inline code span or a fenced code
block of README.md.  A renamed or removed function otherwise lives on in
the documentation.
"""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("bounds", "grid", "harness", "model", "permute", "saddle", "sim", "xbm")
QUOTED = re.compile(rf"(?<![\w.])(?:qopf\.)?({'|'.join(MODULES)})\.(\w+)")


def quoted_names(text):
    """(module, name) of every ``module.name`` in the code of a Markdown text."""
    fenced = re.findall(r"```.*?```", text, re.S)
    inline = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {match.groups() for code in fenced + inline for match in QUOTED.finditer(code)}


def test_quoted_names_are_found():
    text = ("`xbm.piece_table` and `ctx.m0` and `qopf.harness.overlap`\n"
            "```\nsim.prepare(spec)\n```\nnot grid.x")
    assert quoted_names(text) == {("xbm", "piece_table"), ("harness", "overlap"),
                                  ("sim", "prepare")}


def test_readme_names_resolve():
    names = quoted_names(README.read_text(encoding="utf-8"))
    assert names, "README quotes no qopf names"
    missing = sorted(f"{module}.{name}" for module, name in names
                     if not hasattr(importlib.import_module(f"qopf.{module}"), name))
    assert not missing, f"README names what qopf does not define: {missing}"
