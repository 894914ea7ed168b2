"""Smoke test of the benchmark at reduced size (about ten seconds).

Run from the root of the checkout:

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in BENCHMARK.json is emitted, that the
reference kernel scales latencies by its nearest samples, that the
gates pass on the program as it is, that a deliberately perturbed canonical
dual window is counted as failed, and that the command refuses to run in a
directory without the framelab sources.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import cli_layer  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def reduced_runner(name, traced=False, warm_up=True):
    chains = workloads.WORKLOADS[name](np.random.default_rng(0), reduced=True)
    runner = run.Runner(chains, workloads.MODULES, Tracer(workloads.MODULES) if traced else None,
                        None if traced else Reference(name))
    if warm_up:
        runner.warm_up()
    runner.measure(0)
    return runner


def test_workload_names_match():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_end_to_end_metrics_emitted_and_gates_pass(name):
    runner = reduced_runner(name)
    metrics = run.end_to_end(runner, [0.5])
    assert runner.attempted > 0 and runner.failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert all(value > 0 for value, _ in metrics.values())


def test_reference_scale_uses_nearest_samples():
    ref = Reference("scan_decay")
    ref.stamps = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
    ref.seconds = [ref.nominal_s] * 4 + [2 * ref.nominal_s] * 4
    assert ref.scale(0.5) == 1.0  # a machine at nominal speed leaves latencies as they are
    assert ref.scale(6.5) == 0.5  # at half speed they are halved
    runner = reduced_runner("scan_decay")
    assert len(runner.reference.seconds) >= 2


@pytest.fixture(scope="module")
def cli_metrics():
    metrics, records = cli_layer.measure(ROOT, np.random.default_rng(0), reduced=True)
    assert metrics["cli.failed"] == 0 and all(r["ok"] for r in records)
    return metrics


@pytest.mark.parametrize("name, layers", [
    ("lattice_small", ("core", "gabor", "extension", "rdual")),
    ("lattice_large", ("core", "gabor", "extension", "rdual")),
    ("scan_decay", ("core", "gabor", "bspline", "dilation", "exponentials")),
])
def test_per_layer_metrics_emitted(name, layers, cli_metrics):
    runner = reduced_runner(name, traced=True)
    metrics = run.per_layer(runner, runner.tracer, cli_metrics)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert all(metrics[f"{layer}.calls"][0] > 0 for layer in layers)
    assert all(metrics[f"{layer}.failed"][0] == 0 for layer in layers)


def test_perturbed_dual_window_counts_as_failed(monkeypatch):
    original = workloads.gabor.canonical_dual_window

    def perturbed(spec, tolerance=None):
        window = original(spec, tolerance)
        return window + 1e-6 * np.abs(window).max()

    monkeypatch.setattr(workloads.gabor, "canonical_dual_window", perturbed)
    runner = reduced_runner("lattice_large", warm_up=False)
    # each perturbed dual fails its gate, and its Wexler-Raz check cannot run
    duals = sum(chain[0].name == "canonical_dual_window" for chain in runner.chains)
    assert duals > 0
    assert runner.failed == 2 * duals
    assert runner.failed_by_layer == {"gabor": 2 * duals}


def test_refuses_without_sources():
    bare = os.path.join(ROOT, ".bench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    got = subprocess.run(SPEC["command"] + ["--workload", run.WORKLOADS[0], "--seed", "1",
                                            "--seconds", "1", "--trace", "0"],
                         cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert got.returncode != 0 and got.stdout == ""
