"""Run Python source in a fresh interpreter that refuses undeclared imports.

A clean install gets ``[project].dependencies`` from ``pyproject.toml``
and nothing else, so a module-level import of anything outside that
list and the standard library breaks there even though it works on a
development box.  :func:`run_probe` runs its source behind a
``sys.meta_path`` hook that refuses every other top-level module, plus
any module under the *blocked* prefixes.  Blocked refusals are recorded
in ``refused``, so a probe can fail on an import that a
``try``/``except ImportError`` swallowed.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

requires_stdlib_names = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="needs tomllib and sys.stdlib_module_names"
)

_HOOK = """
import importlib.abc
import sys

ALLOWED = set(sys.stdlib_module_names) | {"repro"} | set(DECLARED)
refused = []


def is_blocked(name):
    return any(name == b or name.startswith(b + ".") for b in BLOCKED)


class BlockImports(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        # sysconfig's build-time data module is stdlib, but its name
        # depends on the platform, so stdlib_module_names omits it.
        if top not in ALLOWED and not top.startswith("_sysconfigdata_"):
            raise ModuleNotFoundError(f"blocked undeclared import {top!r}")
        if is_blocked(name):
            refused.append(name)
            raise ModuleNotFoundError(f"blocked import {name!r}")
        return None


sys.meta_path.insert(0, BlockImports())
"""


def declared_modules():
    """Top-level import names of ``[project].dependencies``."""
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = []
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.append(name.lower().replace("-", "_"))
    return names


def run_probe(source, *args, blocked=()):
    """Run *source* under the import hook; *args* land in ``sys.argv[1:]``."""
    header = f"DECLARED = {declared_modules()!r}\nBLOCKED = {tuple(blocked)!r}\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-c", header + _HOOK + textwrap.dedent(source), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=120,
    )
