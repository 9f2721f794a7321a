"""Self-tests of the benchmark: every workload at a tiny scale.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
Each run checks the program's outputs itself; these tests check that a
run passes its output checks and reports every metric in
``BENCHMARK.json``, finite, with its unit.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from datetime import datetime

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import inputs  # noqa: E402
from server import check_distribution, nearest_rank  # noqa: E402

#: Small enough for a quick run, large enough that every stage has data.
TINY_SCALE = "0.08"


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload,trace",
    [("refresh", 0), ("serve", 0), ("refresh", 1), ("serve", 1)],
)
def test_workload_reports_every_metric(workload, trace):
    spec = bench_spec()
    assert workload in [w["name"] for w in spec["workloads"]]
    out = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--scale", TINY_SCALE,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True
    assert report["attempted"] >= 1 and report["failed"] == 0
    expected = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        value = report["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float)) and math.isfinite(value["value"])
    if trace:
        assert report["metrics"]["refresh.unattributed_frac"]["value"] < 0.05


def test_without_the_program_exits_nonzero():
    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = os.path.join(ROOT, ".bench_cache", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = run_bench(bare, "--workload", "serve", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert out.returncode != 0
    assert out.stdout == ""


def test_failed_output_check_exits_nonzero(monkeypatch, capsys):
    import run
    import workloads
    from server import CheckFailed

    def fail(self):
        raise CheckFailed("served answer differs from the exported model")

    monkeypatch.setattr(workloads.Run, "execute", fail)
    code = run.main(["--workload", "serve", "--seed", "3", "--seconds", "1",
                     "--scale", TINY_SCALE])
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert report["correct"] is False and report["failed"] >= 1


def test_same_seed_same_schedule():
    weights = np.arange(1.0, 1001.0)
    first = inputs.schedule(5, "nominal", 100.0, 3.0, weights)
    again = inputs.schedule(5, "nominal", 100.0, 3.0, weights)
    other = inputs.schedule(6, "nominal", 100.0, 3.0, weights)
    assert all((a == b).all() for a, b in zip(first, again))
    assert (first[1] != other[1]).any()
    assert len(first[0]) == 300 and first[0].max() < 3.0 and first[1].max() < 1000


def test_pool_weights_are_engagement():
    at = datetime(2020, 1, 1)
    tweets = [
        {"text": "election results tonight", "followers": 10, "likes": 7, "retweets": 2, "created_at": at},
        {"text": "storm hits the coast", "followers": 5, "likes": 0, "retweets": 0, "created_at": at},
        {"text": "election results tonight", "followers": 3, "likes": 4, "retweets": 1, "created_at": at},
    ]
    pool, weights = inputs._request_pool(tweets)
    assert len(pool) == 2
    assert weights.tolist() == [7 + 2 + 1 + 4 + 1 + 1, 1]
    picks = inputs.weighted_indices(weights, 2000, np.random.default_rng(0))
    assert 0.9 < (picks == 0).mean() < 0.97


def test_nearest_rank_counts_failures_as_over_the_limit():
    assert nearest_rank([1.0, 2.0, 3.0, 4.0], 50) == 2.0
    assert nearest_rank([1.0, 2.0, math.inf, math.inf], 95) == math.inf


def test_check_distribution():
    assert check_distribution([0.2, 0.3, 0.5])
    assert not check_distribution([0.2, 0.8])
    assert not check_distribution([0.2, 0.3, 0.6])
    assert not check_distribution([float("nan"), 0.5, 0.5])
