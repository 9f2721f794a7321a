"""``import repro`` and the serving entry points need only declared dependencies.

A clean install gets ``[project].dependencies`` from ``pyproject.toml``
and nothing else, so a module-level import of anything outside that
list and the standard library breaks ``import repro`` there even though
it works on a development box.  The check runs in a subprocess whose
``sys.meta_path`` refuses every other top-level module.
"""

import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="needs tomllib and sys.stdlib_module_names"
)

_PROBE = textwrap.dedent(
    """
    import importlib.abc
    import sys

    ALLOWED = set(sys.stdlib_module_names) | {"repro"} | set(sys.argv[1:])


    class BlockUndeclared(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            top = name.partition(".")[0]
            # sysconfig's build-time data module is stdlib, but its name
            # depends on the platform, so stdlib_module_names omits it.
            if top not in ALLOWED and not top.startswith("_sysconfigdata_"):
                raise ModuleNotFoundError(f"blocked undeclared import {top!r}")
            return None


    sys.meta_path.insert(0, BlockUndeclared())

    import repro
    import repro.serving.fleet, repro.serving.httpd
    from repro.cli import main

    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code in (0, None), exc.code
    """
)


def _declared_modules():
    """Top-level import names of ``[project].dependencies``."""
    import tomllib

    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = []
    for requirement in project["dependencies"]:
        name = re.match(r"[A-Za-z0-9_.-]+", requirement).group(0)
        names.append(name.lower().replace("-", "_"))
    return names


def test_import_needs_only_declared_dependencies():
    declared = _declared_modules()
    assert "numpy" in declared
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *declared],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
