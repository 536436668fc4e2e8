"""cfl benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload dense --seed 0 --seconds 24 --trace 0

Each timed operation is one in-process `cfl.cli.main(argv)` call, which is
what a user's `cfl ...` command does minus interpreter start-up.  A round is
the workload's fixed command sequence (see workloads.py).  Rounds come in
pairs that repeat one command seed, so every report is checked for
byte-identical repeats; pairs run while one more, as long as the last,
still ends within --seconds, and there is at least one pair.  Every report
is also checked for correctness (checks.py).

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run: after
one warm-up round, the second round of each pair runs with spans installed on
cfl's module attributes (spans.py).  It reports the per-layer metrics and the
tracing overhead, traced minus untraced round time.

The run prints its environment, the report digests and every metric with
its unit; its last line is one JSON object with correct, attempted, failed
and metrics.  It writes only below perfbench/out/, and runs with CFL_THREADS
unset (sequential, the default users get).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import checks
import workloads
from spans import Tracer, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 11
CHILD_TIMEOUT_S = 120

# Every metric's unit, as BENCHMARK.json declares it.
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    _DECLARED = json.load(_fh)
UNITS = {m["name"]: m["unit"] for sec in ("end_to_end", "per_layer") for m in _DECLARED[sec]}

# Per-round numbers read from pipeline reports: metric -> key path.
REPORT_METRICS = {
    "uncovered_fraction": ("uncovered_fraction",),
    "ell_achieved": ("parameters", "ell_achieved"),
    "pipeline.hyperedges": ("stage_audits", "hf", "hyperedges"),
    "pipeline.matcher_uncovered": ("stage_audits", "matching", "hf_uncovered_count"),
    "pipeline.completion_added": ("stage_audits", "completion", "added"),
}


def _dig(report: dict, path: tuple):
    for key in path:
        report = report[key]
    return report


def environment(cfl_threads: str | None) -> dict:
    import numpy
    import scipy

    blas = dict(numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {}))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "CFL_THREADS": cfl_threads,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": _blas_threads()},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _blas_threads():
    """Thread count of the OpenBLAS loaded in this process, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _child(script: str, *args: str) -> str:
    """Run a helper script of the benchmark in a fresh interpreter; its stdout."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, script), *args],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def round_seed(seed: int, pair: int) -> int:
    return 1000 * seed + pair


class Run:
    """One benchmark invocation: executes rounds and checks every report."""

    def __init__(self, workload: str, inputs: dict, work: str):
        import cfl.cli

        self.main = cfl.cli.main
        self.workload = workload
        self.inputs = inputs
        self.work = work
        self.lam_ref = None
        self.host = None
        if "mixing" in inputs:
            self.lam_ref = float(_child("reference.py", inputs["mixing"]))
        if "host" in inputs:
            self.host = checks.read_graph(inputs["host"])
        self.attempted = 0
        self.failed = 0  # operations with at least one failure message
        self.failures: list = []
        self.digests: dict = {}
        self.rounds: list = []

    def _check(self, kind: str, code: int, report: dict) -> list:
        if kind == "pipeline":
            n, edges = self.host
            return checks.check_pipeline(code, report, n, edges, workloads.T)
        if kind == "audit-mixing":
            return checks.check_audit_mixing(code, report, self.lam_ref)
        return checks.check_lp(code, report)

    def round(self, seed: int, tracer: Tracer | None) -> None:
        wall = cpu = 0.0
        reports = []
        for kind, argv, out in workloads.round_ops(self.workload, seed, self.inputs, self.work):
            if os.path.exists(out):
                os.unlink(out)
            self.attempted += 1
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                code = tracer.wrap(f"op.{kind}", self.main)(argv) if tracer else self.main(argv)
            except Exception:  # a crash is a failed operation, not a failed benchmark
                traceback.print_exc()
                self.failed += 1
                self.failures.append(f"{kind} seed {seed}: raised")
                continue
            finally:
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
            fails = self._verify(kind, seed, code, out, reports)
            if fails:
                self.failed += 1
            self.failures.extend(f"{kind} seed {seed}: {msg}" for msg in fails)
        self.rounds.append(
            {"seed": seed, "wall": wall, "cpu": cpu, "reports": reports, "traced": bool(tracer)}
        )

    def _verify(self, kind: str, seed: int, code: int, out: str, reports: list) -> list:
        try:
            with open(out, "rb") as fh:
                data = fh.read()
            report = json.loads(data)
            fails = self._check(kind, code, report)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"report unreadable or malformed: {exc!r}"]
        if kind == "pipeline":
            reports.append(report)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault((kind, seed), digest)
        if digest != first:
            fails.append(f"report differs from the first run of this seed ({digest} != {first})")
        return fails


def end_to_end_metrics(rounds: list, setup_times: list, peak_rss_mb: float) -> dict:
    values = {
        "run_s": statistics.median(r["wall"] for r in rounds),
        "cpu_s": statistics.median(r["cpu"] for r in rounds),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}


def per_layer_metrics(rounds: list, setup_spans: list) -> dict:
    """Seconds are medians over traced rounds, other numbers means over rounds."""
    traced = [r for r in rounds if r["traced"]]
    per_round = [layer_metrics(r["spans"]) for r in traced]
    values = {}
    for name in per_round[0]:
        column = [m[name] for m in per_round]
        values[name] = statistics.median(column) if name.endswith("_s") else statistics.fmean(column)
    values["generators.gen_s"] = layer_metrics(setup_spans)["generators.gen_s"]
    values["trace.overhead_s"] = statistics.median(r["wall"] for r in traced) - statistics.median(
        r["wall"] for r in rounds if not r["traced"]
    )
    reports = [rep for r in rounds for rep in r["reports"]]
    for name, path in REPORT_METRICS.items():
        values[name] = statistics.fmean(_dig(rep, path) for rep in reports) if reports else 0.0
    values["pipeline.achieved_ratio"] = (
        statistics.fmean(
            rep["parameters"]["ell_achieved"] / rep["parameters"]["ell_requested"]
            for rep in reports
        )
        if reports
        else 0.0
    )
    return {k: {"value": v, "unit": UNITS[k]} for k, v in sorted(values.items())}


def bench(args, work: str) -> int:
    tracer = Tracer() if args.trace else None
    setup_times: list = []
    if tracer:
        tracer.round = "setup"
        tracer.install()
        try:
            inputs = workloads.write_inputs(args.workload, work)
        finally:
            tracer.uninstall()
        setup_spans = list(tracer.spans)
    else:
        for _ in range(SETUP_REPEATS):
            child = json.loads(_child("setup_inputs.py", args.workload, work))
            setup_times.append(child["setup_s"])
            inputs = child["inputs"]

    run = Run(args.workload, inputs, work)
    if tracer:
        # The first round in a process runs slower (allocator and solver
        # warm-up); it is left out so the overhead compares warm rounds.
        run.round(round_seed(args.seed, 0), None)
        run.rounds.clear()
    start = time.perf_counter()
    pair, pair_s = 0, 0.0
    # Pairs run while one more, as long as the last, still ends within --seconds.
    while pair == 0 or time.perf_counter() - start + pair_s <= args.seconds:
        pair_start = time.perf_counter()
        seed = round_seed(args.seed, pair)
        run.round(seed, None)
        if tracer:
            tracer.round = 2 * pair + 1
            first = len(tracer.spans)
            tracer.install()
            try:
                run.round(seed, tracer)
            finally:
                tracer.uninstall()
            run.rounds[-1]["spans"] = tracer.spans[first:]
        else:
            run.round(seed, None)
        pair += 1
        pair_s = time.perf_counter() - pair_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write(path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path)}")
        metrics = per_layer_metrics(run.rounds, setup_spans)
    else:
        metrics = end_to_end_metrics(run.rounds, setup_times, peak_rss_mb)

    for (kind, seed), digest in sorted(run.digests.items()):
        print(f"digest {args.workload} {kind} seed={seed} sha256={digest}")
    for msg in run.failures:
        print(f"FAILED {msg}")
    failed = run.failed
    print(
        f"rounds: {len(run.rounds)}  operations: {run.attempted}  failed: {failed}  "
        f"error_rate: {failed / run.attempted:.4g}"
    )
    print("round wall s: " + " ".join(f"{r['wall']:.3f}" for r in run.rounds))
    traced_s = statistics.median(r["wall"] for r in run.rounds if r["traced"]) if tracer else 0.0
    for name, m in metrics.items():
        per_round = traced_s and m["unit"] == "s" and name != "generators.gen_s"
        share = f"  ({m['value'] / traced_s:.1%} of a traced round)" if per_round else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{share}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": run.attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    # The program under test is the checkout's own source, never an installed copy.
    if not os.path.isfile(os.path.join(SRC, "cfl", "__init__.py")):
        print(f"error: no cfl source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cfl.cli  # noqa: F401
    cfl_threads = os.environ.pop("CFL_THREADS", None)
    print("env " + json.dumps(environment(cfl_threads), sort_keys=True))

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=OUT_DIR, prefix=f"work-{args.workload}-")
    try:
        return bench(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
