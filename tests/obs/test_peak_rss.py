"""Peak-memory attribution: each span records how far it raised the
process's resident-set high-water mark.

The high-water mark never falls, so a fresh interpreter runs the
check: inside the test process an earlier test may already have set a
peak that a 64 MB allocation stays under.  On Linux an exec'd child
also starts from its parent's high-water mark, so the probe runs two
hops down, below a small relay interpreter rather than the test process.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro import obs
from repro.obs import NULL_SPAN, render_spans

REPO_ROOT = Path(__file__).resolve().parents[2]

requires_getrusage = pytest.mark.skipif(
    sys.platform == "win32", reason="ru_maxrss needs a Unix getrusage"
)

PROBE = textwrap.dedent(
    """
    import json
    import numpy as np
    from repro import obs

    obs.set_enabled(True)
    with obs.span("run"):
        with obs.span("allocates"):
            block = np.ones(64 * 2**20 // 8)  # 64 MB, every page touched
            del block
        with obs.span("sibling"):
            small = np.ones(2**20 // 8)  # 1 MB, under the new peak
            del small
    print(json.dumps(obs.get_registry().snapshot()))
    """
)

#: Spawns the probe from a fresh, small interpreter (see the module docstring).
RELAY = "import subprocess, sys; sys.exit(subprocess.call([sys.executable, '-c', sys.argv[1]]))"


@requires_getrusage
def test_span_that_allocates_and_frees_64mb_owns_the_peak():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    env.pop("REPRO_OBS", None)
    result = subprocess.run(
        [sys.executable, "-c", RELAY, PROBE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    snapshot = json.loads(result.stdout.splitlines()[-1])
    (run,) = snapshot["spans"]
    allocates, sibling = run["children"]
    assert allocates["peak_rss_growth_mb"] >= 50.0
    assert sibling["peak_rss_growth_mb"] == 0.0
    assert run["peak_rss_growth_mb"] >= allocates["peak_rss_growth_mb"]
    assert "MB peak" in render_spans(snapshot)


def test_disabled_span_stays_free():
    assert obs.span("work") is NULL_SPAN
    assert NULL_SPAN.peak_rss_growth_mb is None
    assert NULL_SPAN.to_dict() == {}


def test_snapshot_without_the_field_renders_without_it():
    snapshot = {"spans": [{"name": "old", "wall_s": 1.0, "cpu_s": 1.0}], "metrics": {}}
    assert "MB peak" not in render_spans(snapshot)
