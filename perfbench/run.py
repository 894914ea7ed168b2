#!/usr/bin/env python3
"""framelab benchmark: verified checks per second on fixed-size workloads.

Run from the root of a framelab checkout:

    python3 perfbench/run.py --workload lattice_large --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each op (one call to a public
framelab function) starts when the previous one has been checked.  The
workload's op list is run in whole passes until the next pass would end
after --seconds.  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics, latencies scaled to a fixed machine speed by a
reference kernel timed between ops (see reference.py); with --trace 1
untraced and traced passes alternate, the CLI layer is measured with
subprocesses, spans are written to .bench_work/trace-<workload>.jsonl, and
the JSON carries the per-layer metrics.  The exit code is 0 only when every op passed its gate.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".bench_work")
WORKLOADS = ("lattice_small", "lattice_large", "scan_decay")
SETUP_PROBES = 8


class Runner:
    """Runs chains of ops, times each program call and applies its gate."""

    def __init__(self, chains, modules, tracer=None, reference=None):
        self.chains = chains
        self.modules = modules
        self.tracer = tracer
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer = {}
        self.passes = []  # (traced, [(start, latency in s) per op])
        self._reported = set()

    def _fail(self, op, count=1):
        self.failed += count
        self.failed_by_layer[op.layer] = self.failed_by_layer.get(op.layer, 0) + count

    def run_chain(self, chain, latencies):
        ctx = {}
        tracer = self.tracer
        for position, op in enumerate(chain):
            if self.reference is not None:
                self.reference.maybe_sample()
            self.attempted += 1
            fn = getattr(self.modules[op.layer], op.name)
            try:
                args = op.prepare(ctx) if op.prepare else op.args
                if tracer is not None:
                    tracer.op = self.attempted
                    tracer.active = True
                start = perf_counter()
                try:
                    result = fn(*args, **op.kwargs)
                finally:
                    latencies.append((start, perf_counter() - start))
                    if tracer is not None:
                        tracer.active = False
                ok = bool(op.check(result, ctx))
            except Exception:  # a failing op is counted and reported, the run goes on
                ok = False
                if op.kind not in self._reported:
                    self._reported.add(op.kind)
                    traceback.print_exc(file=sys.stderr)
            if not ok:
                print(f"failed: {op.kind}{op.args!r:.120}", file=sys.stderr)
                rest = len(chain) - position - 1  # dependents cannot run
                self.attempted += rest
                self._fail(op)
                if rest:
                    self._fail(chain[position + 1], rest)
                return
            ctx["prev"] = result

    def run_pass(self, traced=False):
        latencies = []
        if traced:
            self.tracer.pass_no = len(self.passes)
            self.tracer.install()
        try:
            for chain in self.chains:
                self.run_chain(chain, latencies)
        finally:
            if traced:
                self.tracer.uninstall()
        self.passes.append((traced, latencies))

    def warm_up(self):
        """One call of every op kind: each chain is run up to its last kind not run before."""
        seen = set()
        for chain in self.chains:
            last = -1
            for i, op in enumerate(chain):
                if op.kind not in seen:
                    seen.add(op.kind)
                    last = i
            if last >= 0:
                self.run_chain(chain[:last + 1], [])

    def measure(self, seconds):
        """Whole passes until the next one would end after `seconds`.

        With a tracer, untraced and traced passes alternate, at least one each.
        """
        begin = perf_counter()
        minimum = 2 if self.tracer is not None else 1
        while True:
            start = perf_counter()
            self.run_pass(traced=self.tracer is not None and len(self.passes) % 2 == 1)
            now = perf_counter()
            if len(self.passes) >= minimum and (now - begin) + (now - start) > seconds:
                if self.reference is not None:
                    self.reference.sample()  # the last ops get neighbours on both sides
                return now - begin


def throughput(runner, traced):
    """Ops per second of wall-clock program time over the passes of one kind."""
    latencies = [x for t, lat in runner.passes if t == traced for _, x in lat]
    return len(latencies) / sum(latencies)


def end_to_end(runner, setup_samples):
    """End-to-end metrics; op latencies are scaled by the run's reference."""
    ref = runner.reference
    latencies = [x * ref.scale(start) for traced, lat in runner.passes if not traced
                 for start, x in lat]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_ms_p50": (1e3 * deciles[4], "ms"),
        "op_ms_p90": (1e3 * deciles[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_samples), "s"),
    }


PER_LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "failed": "count",
                   "eig_n3": "count", "mp_eig_n3": "count", "input_mb": "MB",
                   "certified_frac": "frac", "estimate_cells": "count", "start_s": "s",
                   "pool_speedup": "ratio", "stdout_mb": "MB", "overhead_frac": "frac",
                   "spans": "count"}


def per_layer(runner, tracer, cli_metrics):
    from tracing import LAYERS

    metrics, raised = tracer.layer_metrics()
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = float(runner.failed_by_layer.get(layer, 0) + raised[layer])
    metrics.update(cli_metrics)
    metrics["trace.overhead_frac"] = 1.0 - throughput(runner, True) / throughput(runner, False)
    return {name: (value, PER_LAYER_UNITS[name.split(".", 1)[1]]) for name, value in metrics.items()}


def blas_threads():
    """OpenBLAS thread count of this process, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def provenance(args):
    import platform

    import mpmath
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "framelab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
        commit = got.stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": np.__version__, "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": commit, "src_sha256": digest.hexdigest(),
    }


def setup_probe(args):
    """Setup time measured in a fresh process, as the main process measured its own."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    got = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    sys.stderr.write(got.stderr)
    return json.loads(got.stdout.strip().splitlines()[-1])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "framelab", "__init__.py")):
        print(f"error: no framelab sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    start = perf_counter()
    import numpy as np
    import workloads

    chains = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    runner = Runner(chains, workloads.MODULES)
    runner.warm_up()
    setup_s = perf_counter() - start
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "attempted": runner.attempted,
                          "failed": runner.failed}))
        return 0

    prov = provenance(args)
    if not args.trace:
        from reference import Reference

        runner.reference = Reference(args.workload)
    runner.run_pass()  # settling pass: allocator and BLAS state as in the timed passes
    runner.passes.clear()
    if args.trace:
        import cli_layer
        from tracing import Tracer

        runner.tracer = Tracer(workloads.MODULES)
        elapsed = runner.measure(args.seconds)
        cli_metrics, cli_records = cli_layer.measure(ROOT, np.random.default_rng(args.seed))
        metrics = per_layer(runner, runner.tracer, cli_metrics)
        failed = runner.failed + int(cli_metrics["cli.failed"])
        attempted = runner.attempted + int(cli_metrics["cli.calls"])
        os.makedirs(WORKDIR, exist_ok=True)
        path = os.path.join(WORKDIR, f"trace-{args.workload}.jsonl")
        runner.tracer.write(path, {"provenance": prov, "cli": cli_records})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    else:
        elapsed = runner.measure(args.seconds)
        probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
        metrics = end_to_end(runner, [setup_s] + [p["setup_s"] for p in probes])
        failed = runner.failed + sum(p["failed"] for p in probes)
        attempted = runner.attempted + sum(p["attempted"] for p in probes)

    samples = sum(len(lat) for traced, lat in runner.passes if not traced)
    above = samples - int(0.9 * samples)
    print(f"{args.workload} seed {args.seed}: {len(runner.passes)} timed passes in {elapsed:.1f} s; "
          f"{samples} untraced latency samples, {above} above p90")
    if above < 10:
        print("  warning: fewer than 10 samples above p90; op_ms_p90 is not supported by this run")
    print(f"  failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    if runner.reference is not None:
        ref = runner.reference
        print(f"  wall-clock ops_per_s {throughput(runner, False):.6g} 1/s; reference kernel "
              f"median {1e3 * statistics.median(ref.seconds):.4g} ms over {len(ref.seconds)} "
              f"samples, nominal {1e3 * ref.nominal_s:.4g} ms")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} {value:.6g} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
