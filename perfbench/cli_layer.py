"""The CLI layer: framelab commands run as subprocesses, outputs parsed and checked.

Outputs are checked by parsing them, never by comparing bytes: the same
`gabor sweep` prints a different number of bytes under different BLAS
thread counts (the last digits of the bounds move), so byte equality would
measure the BLAS configuration rather than the program.  BLAS threads are
not pinned here, so the known oversubscription of `--jobs 2` on two CPUs
stays visible in cli.pool_speedup.
"""

from __future__ import annotations

import csv
import io
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

SWEEP_LENGTHS = (4, 6, 8, 12, 16, 24)
SWEEP_WINDOWS = 5
SCAN_GRID = ("0.25:1.75:0.25", "0.1:0.45:0.05")
SWEEP_TOL = 1e-10
TIMEOUT_S = 170


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _report_passes(text):
    report = json.loads(text)["result"]["report"]
    return report["verdict"] == "pass" and all(
        v <= report["tolerance_used"] for v in report["residuals"].values())


def _sweep_check(expected_rows):
    def check(text):
        rows = _csv_rows(text)
        return len(rows) == expected_rows and all(float(r["residual"]) <= SWEEP_TOL for r in rows)
    return check


def _same_sweep(first, second):
    """Two sweep tables agree row by row to 1e-9 relative (not byte for byte)."""
    a, b = _csv_rows(first), _csv_rows(second)
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if (ra["L"], ra["a"], ra["b"]) != (rb["L"], rb["a"], rb["b"]):
            return False
        for key in ("lowerA", "upperB", "adjoint_lower", "adjoint_upper"):
            x, y = float(ra[key]), float(rb[key])
            if abs(x - y) > 1e-9 * max(abs(x), abs(y), float(ra["upperB"])):
                return False
    return True


def _scan_check(text):
    rows = _csv_rows(text)
    ok = len(rows) == 7 * 8
    for r in rows:
        if r["status"] == "frame_certified":
            ok &= float(r["A"]) > 0 and float(r["a"]) * float(r["b"]) <= 1 + 1e-12
    return ok


def _decay_check(n_max):
    def check(text):
        rows = _csv_rows(text)
        lows = [float(r["lower"]) for r in rows]
        return (len(rows) == n_max - 1
                and all(v2 < v1 for v1, v2 in zip(lows, lows[1:]))
                and all(float(r["crude"]) <= float(r["lower"]) for r in rows))
    return check


def _value_check(expected, key_path, rel):
    def check(text):
        value = json.loads(text)["result"]
        for key in key_path:
            value = value[key]
        return abs(value - expected) <= rel * max(abs(expected), 1.0)
    return check


def _divisors(L):
    return [d for d in range(1, L + 1) if L % d == 0]


def commands(rng, workdir, reduced=False):
    """(name, argv, check) for every invocation of the CLI phase."""
    lengths = SWEEP_LENGTHS[:2] if reduced else SWEEP_LENGTHS
    windows = 1 if reduced else SWEEP_WINDOWS
    seed = int(rng.integers(1, 2 ** 31))
    expected = sum(len(_divisors(L)) ** 2 for L in lengths) * windows
    sweep = ["gabor", "sweep", "--L-list", ",".join(map(str, lengths)),
             "--windows", str(windows), "--seed", str(seed), "--format", "csv"]
    n_max = 8 if reduced else 30
    cmds = [
        ("gabor sweep --jobs 2", sweep + ["--jobs", "2"], _sweep_check(expected)),
        ("gabor sweep --jobs 1", sweep + ["--jobs", "1"], _sweep_check(expected)),
        ("bspline scan", ["bspline", "scan", "--N", "2" if reduced else "4",
                          "--a-grid", SCAN_GRID[0], "--b-grid", SCAN_GRID[1],
                          "--jobs", "2", "--format", "csv"], _scan_check),
        ("exp decay", ["exp", "decay", "--n-max", str(n_max), "--dps", "60", "--format", "csv"],
         _decay_check(n_max)),
    ]
    shots = 1 if reduced else 5
    for _ in range(shots):
        L = int(rng.choice((6, 8, 12, 16, 24)))
        a, b = (int(rng.choice(_divisors(L))) for _ in range(2))
        cmds.append(("gabor duality", ["gabor", "duality", "--L", str(L), "--a", str(a),
                                        "--b", str(b), "--window", "random",
                                        "--seed", str(int(rng.integers(1, 2 ** 31)))],
                     _report_passes))
    for N in range(2, 2 + (1 if reduced else 4)):
        cmds.append(("bspline props", ["bspline", "props", "--N", str(N)], _report_passes))
    for _ in range(1 if reduced else 2):
        cmds.append(("wavelet check-dual", ["wavelet", "check-dual", "--psi", "shannon"],
                     _report_passes))
    for _ in range(shots - 1 if not reduced else 1):
        count = int(rng.integers(3, 9))
        lambdas = np.cumsum(rng.uniform(0.3, 1.0, count))
        gram = 2 * np.pi * np.sinc(np.subtract.outer(lambdas, lambdas))
        expected_bound = float(np.linalg.eigvalsh(gram)[0])
        text = ",".join(repr(float(v)) for v in lambdas)
        cmds.append(("exp bound", ["exp", "bound", "--lambdas", text],
                     _value_check(expected_bound, ("lower_bound",), 1e-9)))
    for i in range(shots):
        dim = int(rng.integers(2, 9))
        count = int(rng.integers(dim, 3 * dim))
        vectors = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
        path = os.path.join(workdir, f"frame-{i}.json")
        with open(path, "w") as fh:
            json.dump({"ambient_dim": dim, "label": f"random {i}",
                       "vectors": [[[z.real, z.imag] for z in row] for row in vectors]}, fh)
        ev = np.linalg.eigvalsh(vectors.T @ vectors.conj())
        cmds.append(("frame bounds", ["frame", "bounds", "--file", path],
                     _value_check(float(ev[-1]), ("bounds", "upper"), 1e-9)))
    return cmds


def _run(argv, env, cwd):
    return subprocess.run(argv, capture_output=True, env=env, cwd=cwd, timeout=TIMEOUT_S)


def measure(root, rng, reduced=False):
    """Run the CLI phase; returns (metrics, records) with one record per invocation."""
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    workdir = os.path.join(root, ".bench_work", "cli")
    os.makedirs(workdir, exist_ok=True)
    cmds = commands(rng, workdir, reduced)

    starts = []
    for _ in range(3):
        start = perf_counter()
        _run([sys.executable, "-c", "import framelab.cli"], env, root)
        starts.append(perf_counter() - start)

    records, outputs = [], {}
    failed, busy, stdout_bytes = 0, 0.0, 0
    for name, argv, check in cmds:
        start = perf_counter()
        text, ok = "", False
        try:
            proc = _run([sys.executable, "-m", "framelab.cli"] + argv, env, root)
            end = perf_counter()
            text = proc.stdout.decode()
            ok = proc.returncode == 0 and check(text)
        except (subprocess.TimeoutExpired, csv.Error, ValueError, KeyError) as exc:
            end = perf_counter()
            print(f"cli: {name} raised {exc!r}", file=sys.stderr)
        if not ok:
            failed += 1
            print(f"cli: {name} failed its check", file=sys.stderr)
        outputs[name] = text
        busy += end - start
        stdout_bytes += len(text)
        records.append({"layer": "cli", "name": name, "argv": argv, "start": start,
                        "end": end, "ok": ok, "stdout_bytes": len(text)})
    if not _same_sweep(outputs["gabor sweep --jobs 2"], outputs["gabor sweep --jobs 1"]):
        failed += 1
        print("cli: --jobs 1 and --jobs 2 sweeps disagree", file=sys.stderr)

    wall = {r["name"]: r["end"] - r["start"] for r in records if r["name"].startswith("gabor sweep")}
    metrics = {
        "cli.calls": float(len(records)),
        "cli.start_s": statistics.median(starts),
        "cli.busy_s": busy,
        "cli.pool_speedup": wall["gabor sweep --jobs 1"] / wall["gabor sweep --jobs 2"],
        "cli.stdout_mb": stdout_bytes / 1e6,
        "cli.failed": float(failed),
    }
    return metrics, records
