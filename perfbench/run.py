"""The repo benchmark: one §4.9 deployment per run, measured from outside.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload refresh --seed 1 --seconds 10 --trace 0

Runs one workload (``refresh`` or ``serve``; see
``workloads.py``) against the program under ``src/``: the pipeline
in-process through its public functions, the server as a child
``python -m repro serve`` reached over loopback HTTP.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` ``repro.obs`` is enabled and the metrics are the per-layer
ones, and the obs snapshot plus a per-layer table are written under
``.bench_cache/trace/``.  A failed output check prints ``"correct":
false`` and exits 1; a checkout without the program exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from collections import defaultdict
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: World scale relative to 10k articles / 21k tweets over 28 days.
DEFAULT_SCALE = 0.2


def _report(run, values: Dict[str, float], units: Dict[str, str], correct: bool) -> Dict:
    return {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def _trace_files(run, layer_values: Dict[str, float], label: str) -> str:
    """Write the obs snapshot and the per-layer table; returns the table."""
    from repro import obs

    import layers

    directory = os.path.join(ROOT, ".bench_cache", "trace")
    registry = obs.get_registry()
    registry.save(os.path.join(directory, f"{label}.json"))
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    for span in registry.iter_spans():
        row = totals[span.name]
        row[0] += 1
        row[1] += span.wall_s or 0.0
        row[2] += span.self_wall_s or 0.0
    lines = [f"per-layer table ({label})", "  span                                   calls     wall_s     self_s"]
    for name, (calls, wall, self_wall) in sorted(totals.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<38} {calls:>5} {wall:>10.4f} {self_wall:>10.4f}")
    lines.append("metrics")
    lines.append(layers.render(layer_values, layers.PER_LAYER))
    table = "\n".join(lines)
    with open(os.path.join(directory, f"{label}.txt"), "w", encoding="utf-8") as handle:
        handle.write(table + "\n")
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("refresh", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program at {src}/repro; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    # The program runs with its defaults: no REPRO_* knob from the
    # caller's environment (REPRO_OBS included) reaches it.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # One BLAS thread per process, so the pipeline, the server child and
    # the load generator do not oversubscribe the cores between them.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[key] = "1"

    from repro import obs

    import inputs
    import layers
    from server import CheckFailed
    from workloads import END_TO_END, UNGATED, Run

    cache = os.path.join(ROOT, ".bench_cache")
    data = inputs.load_inputs(args.seed, args.scale, cache)
    os.makedirs(os.path.join(cache, "tmp"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(cache, "tmp"))
    obs.set_enabled(bool(args.trace))
    obs.get_registry().reset()
    run = Run(args.workload, data, args.seconds, ROOT, workdir)
    try:
        try:
            values = run.execute()
            if args.trace:
                values.update(layers.per_layer(run, layers.overhead_frac(run.deployment.pipeline)))
                units = layers.PER_LAYER
                print(_trace_files(run, values, f"{args.workload}-s{args.seed}"))
            else:
                units = END_TO_END
        except CheckFailed as exc:
            print(f"perfbench: output check failed: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(run.attempted, 1),
                              "failed": run.failed + 1, "metrics": {}}))
            return 1
    finally:
        run.close()
        shutil.rmtree(workdir, ignore_errors=True)

    finite = all(isinstance(values[n], (int, float)) and math.isfinite(values[n]) for n in units)
    if not args.trace:
        print(layers.render(values, units))
        print("not gated (the traced run reports them):")
        print(layers.render(dict(values, burst_f1=run.burst_f1()), dict(UNGATED, burst_f1="ratio")))
    print(json.dumps(_report(run, values, units, finite)))
    return 0 if finite else 1


if __name__ == "__main__":
    raise SystemExit(main())
