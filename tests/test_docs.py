"""Every qopf name and command that README quotes exists.

A name counts when it is written ``module.name`` or ``qopf.module.name``,
for one of the qopf modules, inside an inline code span or a fenced code
block of README.md.  A renamed or removed function otherwise lives on in
the documentation.  README's block of ``qopf ...`` command lines lists
exactly the subcommands and option flags that the parser defines, so a
removed flag cannot linger in it either.
"""

import argparse
import importlib
import re
from pathlib import Path

from qopf import cli

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


def readme_commands(text):
    """{subcommand: set of option flags} of every ``qopf ...`` line in the
    fenced code blocks of a Markdown text, comments left out."""
    lines = [line.split("#")[0] for code in re.findall(r"```.*?```", text, re.S)
             for line in code.splitlines() if line.startswith("qopf ")]
    return {line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in lines}


def test_readme_commands_match_the_parser():
    commands = readme_commands(README.read_text(encoding="utf-8"))
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    defined = {name: {flag for action in parser._actions for flag in action.option_strings
                      if flag.startswith("--") and flag != "--help"}
               for name, parser in subparsers.choices.items()}
    assert commands == defined
