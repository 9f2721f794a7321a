"""Every subpackage imports on its own, whatever was imported before it.

``repro/__init__`` imports nothing eagerly, so no subpackage can lean on
an earlier import having set its dependencies up.  Each target runs in a
fresh interpreter: a circular import (``repro.resilience.checkpoint`` →
stage codecs → ``repro.core`` → checkpoint store) shows only when its
module is the first one loaded.  The targets are every top-level module
and subpackage of ``repro`` plus every module of ``repro.resilience``
and ``repro.serving``, the layers serving loads.  Each import runs
behind the undeclared-dependency hook of :mod:`tests.import_probe`, so
every target is also checked alone for imports outside
``[project].dependencies``.
"""

import pkgutil
from concurrent.futures import ThreadPoolExecutor

from tests.import_probe import REPO_ROOT, requires_stdlib_names, run_probe

pytestmark = requires_stdlib_names

PACKAGE = REPO_ROOT / "src" / "repro"


def _targets():
    names = [
        f"repro.{info.name}"
        for info in pkgutil.iter_modules([str(PACKAGE)])
        if info.name != "__main__"
    ]
    for sub in ("resilience", "serving"):
        names += [
            f"repro.{sub}.{info.name}"
            for info in pkgutil.iter_modules([str(PACKAGE / sub)])
        ]
    return sorted(names)


def _import_alone(module):
    proc = run_probe(f"import {module}")
    return module, proc.returncode, proc.stderr.strip().splitlines()[-1:]


def test_each_module_imports_in_a_fresh_interpreter():
    targets = _targets()
    assert {"repro.core", "repro.resilience.checkpoint", "repro.serving.fleet"} <= set(targets)
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_import_alone, targets))
    failures = [f"{module}: {tail}" for module, code, tail in results if code != 0]
    assert not failures, "\n".join(failures)
