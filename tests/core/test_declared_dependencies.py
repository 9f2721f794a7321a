"""Every ``repro`` module and the CLI need only declared dependencies.

``import repro`` loads no subpackage (its top-level names are lazy), so
the probe walks the package and imports every module explicitly, then
runs ``repro --help``, all behind the hook of :mod:`tests.import_probe`
that refuses anything outside ``[project].dependencies`` and the
standard library.
"""

from tests.import_probe import declared_modules, requires_stdlib_names, run_probe

pytestmark = requires_stdlib_names

_PROBE = """
import importlib
import pkgutil

import repro
from repro.cli import main

names = [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if not info.name.endswith(".__main__")
]
assert "repro.core.pipeline" in names and "repro.topics.lda" in names, names
for name in names:
    importlib.import_module(name)

try:
    main(["--help"])
except SystemExit as exc:
    assert exc.code in (0, None), exc.code
"""


def test_import_needs_only_declared_dependencies():
    assert "numpy" in declared_modules()
    proc = run_probe(_PROBE)
    assert proc.returncode == 0, proc.stderr
