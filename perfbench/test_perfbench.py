"""Checks of the benchmark itself: ``python3 -m pytest perfbench`` from the
root of a checkout."""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def traced_counts(name, seed):
    done = run_bench("--workload", name, "--seed", str(seed),
                     "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {key: m["value"] for key, m in result["metrics"].items()
            if not m["unit"].startswith(("s/", "work/", "ratio"))}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_computed_counts_repeat_at_one_seed(name):
    first = traced_counts(name, 11)
    assert first == traced_counts(name, 11)
    assert first["cli.main.calls"] > 0 and first["cli.bytes_out"] > 0


def test_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "replicate", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_gates_pass_a_fair_pool_and_reject_a_biased_one(tmp_path):
    rep = workloads.Replicate(3, str(tmp_path))
    report = workloads.run_experiment(workloads.ExperimentConfig(
        b=rep.B, m=rep.M, s=rep.S, R=4000, seed=5, function_spec=rep.spec))
    assert rep.gates(report.estimates, report.pair_terms) == []
    biased = report.pair_terms + 0.05
    assert rep.gates(report.estimates, biased)
