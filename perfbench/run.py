#!/usr/bin/env python3
"""nhchain benchmark.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 54 --trace 0

Run from the repository root.  One process, one client, closed loop: each op
is one ``cli.run_preset`` or ``cli.run_config`` call into a fresh directory,
and the next op starts when the previous one has returned.  After an untimed
warm-up op, whole passes over the workload's ops repeat while the next pass
is expected to end within ``--seconds``; at least one pass always runs.
Every op's outputs are checked (checks.py); the passes that follow the first
must write byte-identical files.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half traced (tracing.py) and prints the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
give the same numbers for people, with provenance.  ``--workload all`` runs
every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import ctypes
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
from pathlib import Path

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_RUNS = 5


class BenchError(Exception):
    """The benchmark cannot run here: no program, or its set-up failed."""


# ---------------------------------------------------------------------------
# provenance

def _blas_libraries() -> list[dict]:
    """Loaded OpenBLAS builds with their version string and thread count, as found."""
    found = []
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for suffix in ("64_", ""):
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                info["config"] = config().decode()
                info["threads"] = threads()
                break
        found.append(info)
    return found


def provenance(seed: int, drawn: dict) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as cpuinfo:
        for line in cpuinfo:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload_seed": seed,
        "drawn_inputs": drawn,
    }


# ---------------------------------------------------------------------------
# set-up time

def measure_setup(workload: str, seed: int) -> list[float]:
    """Wall time of fresh interpreters that import nhchain.cli and build the configs.

    The first run is discarded so that the file cache is warm.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed)
    return times[1:]


# ---------------------------------------------------------------------------
# passes

class Runner:
    """Runs ops, checks their outputs and keeps the per-op record of one process."""

    def __init__(self, cli, ops, configs, reference, workdir: Path):
        self.cli = cli
        self.ops = ops
        self.configs = configs
        self.reference = reference
        self.workdir = workdir
        self.first: dict[str, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def call(self, op, config, outdir: Path) -> None:
        if op.preset:
            self.cli.run_preset(op.preset, outdir, seed=op.spec.get("seed"))
        else:
            self.cli.run_config(config, outdir)

    def run_pass(self, tracer=None) -> dict:
        """One pass over the ops; returns op times, files and bytes written."""
        times, files_written, bytes_written = {}, 0, 0
        for op, config in zip(self.ops, self.configs):
            outdir = Path(tempfile.mkdtemp(dir=self.workdir))
            self.attempted += 1
            if tracer:
                tracer.begin_op((self.attempted, op.name))
            start = time.perf_counter()
            try:
                self.call(op, config, outdir)
                elapsed = time.perf_counter() - start
                files = checks.read_outputs(outdir)
                problems = self.verify(op, files)
            except Exception:
                elapsed = time.perf_counter() - start
                files = {}
                problems = [traceback.format_exc(limit=3).strip().splitlines()[-1]]
            finally:
                if tracer:
                    tracer.end_op()
                shutil.rmtree(outdir)
            if problems:
                self.failed += 1
                self.problems += [f"{op.name}: {p}" for p in problems]
            times[op.name] = elapsed
            files_written += len(files)
            bytes_written += sum(len(data) for data in files.values())
        return {"times": times, "wall": sum(times.values()),
                "written": {"files": files_written, "bytes": bytes_written}}

    def verify(self, op, files) -> list[str]:
        """Full check the first time an op runs; later runs must write the same bytes."""
        digest = checks.digest(files)
        if op.name in self.first:
            first_digest, first_problems = self.first[op.name]
            if digest == first_digest:
                return first_problems
            return ["outputs differ from the first pass"] + checks.check(op, files, self.reference)
        problems = checks.check(op, files, self.reference)
        self.first[op.name] = (digest, problems)
        return problems

    def passes(self, budget: float, tracer=None, on_pass=None) -> list[dict]:
        """Repeat passes while the next one is expected to end within ``budget``."""
        done = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            done.append(self.run_pass(tracer))
            done[-1]["elapsed"] = time.perf_counter() - pass_start
            if on_pass:
                on_pass(done[-1])
            used = time.perf_counter() - start
            if used + statistics.median(p["elapsed"] for p in done) > budget:
                return done


def end_to_end(passes: list[dict], setup: list[float], runner: Runner) -> dict:
    return {
        "wall_s": (statistics.median(p["wall"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "success_rate": ((runner.attempted - runner.failed) / runner.attempted, "ratio"),
    }


def traced_metrics(runner: Runner, untraced: list[dict], budget: float, package):
    """Traced passes; per-layer metrics are medians over them."""
    tracer = tracing.Tracer(package)
    per_pass, spans, residuals = [], [], []

    def reduce(result):
        per_pass.append(tracing.pass_metrics(tracer.spans, tracer.errors, result["written"]))
        residuals.extend(tracing.op_residuals(tracer.spans))
        spans.extend(tracer.spans)
        tracer.spans.clear()
        tracer.errors.clear()

    tracer.install()
    try:
        traced = runner.passes(budget, tracer, on_pass=reduce)
    finally:
        tracer.uninstall()
    metrics = tracing.median_metrics(per_pass)
    metrics["trace_overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                   - statistics.median(p["wall"] for p in untraced))
    residual = max(abs(r) for r in residuals)
    if residual > 1e-6:
        runner.failed += 1
        runner.problems.append(f"layer self times miss the op span by {residual:.3g} s")
    detail = {
        "self_time_residual_max_s": residual,
        **tracing.by_dimension(spans),
        "traced_wall_s": [p["wall"] for p in traced],
    }
    return metrics, detail, spans


def write_spans(path: Path, spans: list[list]) -> None:
    index = {id(span): i for i, span in enumerate(spans)}
    with open(path, "w") as handle:
        for i, (name, layer, start, end, parent, op, info) in enumerate(spans):
            handle.write(json.dumps({
                "id": i, "name": name, "layer": layer, "start": start, "end": end,
                "parent": index.get(id(parent)), "op": list(op), "info": info,
            }) + "\n")


# ---------------------------------------------------------------------------
# entry points

def run_workload(args) -> dict:
    if not (SRC / "nhchain" / "cli.py").is_file():
        raise BenchError(f"no nhchain sources under {SRC}")
    load_before = os.getloadavg()
    drawn = workloads.draw(args.seed)
    setup = measure_setup(args.workload, args.seed)

    sys.path.insert(0, str(SRC))
    import nhchain
    import nhchain.cli as cli

    ops = workloads.ops(args.workload, drawn)
    configs = workloads.prepare(cli, ops)
    reference = json.loads((HERE / "reference.json").read_text())
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        runner = Runner(cli, ops, configs, reference, workdir)
        warm_dir = workdir / "warmup"
        cli.run_config(workloads.prepare(cli, [workloads.WARMUP])[0], warm_dir)
        shutil.rmtree(warm_dir)

        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = runner.passes(budget)
        result = {"provenance": provenance(args.seed, drawn),
                  "ops": {op.name: [p["times"][op.name] for p in untraced] for op in ops},
                  "setup_runs_s": setup}
        if args.trace:
            metrics, detail, spans = traced_metrics(runner, untraced, budget, nhchain)
            result["trace"] = detail
            tag = f"{args.workload}-seed{args.seed}"
            write_spans(OUT / f"spans-{tag}.jsonl", spans)
            metrics = {k: (v, tracing.unit(k)) for k, v in metrics.items()}
        else:
            metrics = end_to_end(untraced, setup, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["provenance"]["loadavg_before"] = load_before
    result["provenance"]["loadavg_after"] = os.getloadavg()
    result["problems"] = runner.problems
    result["summary"] = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report(workload: str, result: dict) -> None:
    prov = result["provenance"]
    blas = "; ".join(f"{b.get('config', b['library'])} threads={b.get('threads')}"
                     for b in prov["blas"])
    print(f"# {workload}: seed {prov['workload_seed']} draws {prov['drawn_inputs']}")
    print(f"# nproc {prov['nproc']}, {prov['cpu_model']}, python {prov['python']}, "
          f"numpy {prov['numpy']}, scipy {prov['scipy']}")
    print(f"# BLAS: {blas}; thread env {prov['thread_env']}")
    print(f"# load average before {prov['loadavg_before']} after {prov['loadavg_after']}")
    for name, times in result["ops"].items():
        print(f"op {name:20s} median {statistics.median(times):.4f} s over {len(times)} passes")
    for name in workloads.NAMED_OPS.get(workload, ()):
        print(f"{workload} {name}_s = {statistics.median(result['ops'][name]):.6g} s (untraced)")
    for name, metric in result["summary"]["metrics"].items():
        print(f"{workload} {name} = {metric['value']:.6g} {metric['unit']}")
    summary = result["summary"]
    print(f"{workload} error_rate = {summary['failed'] / summary['attempted']:.6g} "
          f"({summary['failed']} of {summary['attempted']} ops failed)")
    for problem in result["problems"][:20]:
        print(f"FAILED {problem}")


def run_all(args) -> dict:
    """Each workload in its own process; the JSON merges their metrics."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{workload} failed: {proc.stderr.strip()[-500:]}")
        one = json.loads(lines[-1])
        merged["correct"] &= one["correct"]
        merged["attempted"] += one["attempted"]
        merged["failed"] += one["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in one["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        if args.workload == "all":
            summary = run_all(args)
        else:
            result = run_workload(args)
            report(args.workload, result)
            summary = result["summary"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
