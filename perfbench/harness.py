"""Timed loop, metrics, per-layer breakdown and provenance for one run."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings

import numpy as np

import wellprobe as wp
from tracer import MODULES, TRACED, merge, span_name

MAX_LISTED_FAILURES = 20


class Stats:
    """What one timed loop observed."""

    def __init__(self):
        self.latency: list[float] = []
        self.latency_by_kind: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.busy = 0.0
        self.truncation_warnings = 0
        self.digests: list = []

    @property
    def passed(self) -> int:
        return self.attempted - self.failed

    @property
    def ops_per_s(self) -> float:
        return self.passed / self.busy


def measure(wl, seed: int, seconds: float, tracer=None, first_op: int = 0, keep_digests=False) -> Stats:
    """Run whole cycles of operations until ``seconds`` of operation time.

    Only the operation call is timed; its check runs afterwards, with any
    tracer paused, and a failed check counts the operation as failed.
    """
    stats = Stats()
    cycles = wl.cycles(seed)
    truncation_warning = wp.states.TruncationWarning
    while stats.busy < seconds:
        for op in next(cycles):
            if tracer is not None:
                tracer.current_op = first_op + stats.attempted
                tracer.recording = True
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                start = time.perf_counter()
                try:
                    result, error = op.run(), None
                except Exception as exc:  # the operation's failure is a measurement
                    result, error = None, exc
                elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            stats.attempted += 1
            stats.busy += elapsed
            stats.latency.append(elapsed)
            stats.latency_by_kind.setdefault(op.kind, []).append(elapsed)
            stats.truncation_warnings += sum(issubclass(w.category, truncation_warning) for w in caught)
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:  # a corrupted result may not even have the right shape
                    error = exc
            if error is not None:
                stats.failed += 1
                if len(stats.failures) < MAX_LISTED_FAILURES:
                    stats.failures.append({"op": op.label, "error": f"{type(error).__name__}: {error}"})
            if keep_digests:
                stats.digests.append(None if error else hashlib.blake2b(op.digest(result)).digest())
    return stats


def latency_summary(latency: list[float]) -> dict:
    ordered = sorted(latency)
    n = len(ordered)
    # highest percentile with at least ten samples beyond it
    tail_index = n - 11 if n > 10 else n - 1
    q1, _, q3 = statistics.quantiles(ordered, n=4) if n > 1 else (ordered[0],) * 3
    return {
        "samples": n,
        "p25_ms": q1 * 1e3,
        "p50_ms": statistics.median(ordered) * 1e3,
        "p75_ms": q3 * 1e3,
        "tail_ms": ordered[tail_index] * 1e3,
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_samples_beyond": n - 1 - tail_index,
        "max_ms": ordered[-1] * 1e3,
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kB on Linux


def setup_sample(args, root: str) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _ops_block(stats: Stats) -> dict:
    return {
        "attempted": stats.attempted,
        "passed": stats.passed,
        "failed": stats.failed,
        "error_rate": stats.failed / stats.attempted,
        "busy_s": stats.busy,
        "ops_per_s": stats.ops_per_s,
        "latency": latency_summary(stats.latency),
        "p50_ms_by_kind": {k: [len(v), statistics.median(v) * 1e3] for k, v in stats.latency_by_kind.items()},
        "truncation_warnings": stats.truncation_warnings,
        "failures": stats.failures,
    }


def run_plain(wl, args, root: str, first_setup_s: float):
    # set-up samples are taken before and after the timed loop, so that they
    # span the run rather than one moment of the host's load; none is taken
    # inside it, where a child interpreter would evict the caches of the
    # operation that follows it
    children = wl.setup_samples - 1
    setups = [first_setup_s] + [setup_sample(args, root) for _ in range(children // 2)]
    stats = measure(wl, args.seed, args.seconds)
    peak = peak_rss_mb(children=wl.name == "cli")
    run_failures = wl.finish()
    setups += [setup_sample(args, root) for _ in range(children - children // 2)]
    latency = latency_summary(stats.latency)
    metrics = {
        "ops_per_s": (stats.ops_per_s, "1/s"),
        "op_p50_ms": (latency["p50_ms"], "ms"),
        "op_tail_ms": (latency["tail_ms"], "ms"),
        "peak_rss_mb": (peak, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    report = _report(wl, args, root)
    report.update(ops=_ops_block(stats), run_check_failures=run_failures,
                  setup_samples_s=setups,
                  peak_rss_of="largest child process" if wl.name == "cli" else "workload process")
    return report, _line(stats.failed == 0 and not run_failures, stats, metrics)


def run_traced(wl, args, root: str, tracer, out_dir: str):
    """Untraced half, then the same operations traced; per-layer metrics."""
    half = args.seconds / 2.0
    tracer.uninstall()
    plain = measure(wl, args.seed, half, keep_digests=True)
    if wl.name == "cli":
        wl.trace_dir = out_dir
    tracer.install()
    traced = measure(wl, args.seed, half, tracer, first_op=plain.attempted, keep_digests=True)
    tracer.uninstall()
    run_failures = wl.finish()
    mismatches = sum(
        1 for a, b in zip(plain.digests, traced.digests) if a is not None and b is not None and a != b
    )
    compared = min(len(plain.digests), len(traced.digests))

    summary = merge([tracer.summary()] + list(wl.child_summaries))
    calls, self_ns, counters = summary["calls"], summary["self_ns"], summary["counters"]
    metrics = {}
    for module, func in TRACED:
        name = span_name(module, func)
        if module != "cli":
            metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
    for name in ("states.wavefunction", "states.d_wavefunction", "quadrature.quadrature"):
        metrics[f"{name}.points"] = (counters.get(f"{name}.points", 0), "count")
    metrics["well.build_overlap_table.table_bytes"] = (
        counters.get("well.build_overlap_table.table_bytes", 0), "B")
    metrics["states.amplitudes.cold_s"] = (counters.get("states.amplitudes.cold_ns", 0) / 1e9, "s")
    metrics["states.truncation_warnings"] = (traced.truncation_warnings, "count")
    metrics["dynamics.series_terms"] = (counters.get("dynamics.series_terms", 0), "count")
    estimates = calls.get("inference.mle_estimate", 0)
    metrics["inference.likelihood_evals_per_estimate"] = (
        calls.get("inference.log_likelihood", 0) / estimates if estimates else 0.0, "evals/estimate")
    cli_imports = getattr(wl, "import_s", [])
    metrics["cli.import_s"] = (statistics.median(cli_imports) if cli_imports else 0.0, "s")
    rows = getattr(wl, "time_rows", 0)
    metrics["cli.time.series_evals_per_row"] = (
        wl.time_series_evals / rows if rows else 0.0, "evals/row")
    total = sum(self_ns.values())
    for module in MODULES:
        mine = sum(v for k, v in self_ns.items() if k.startswith(module + "."))
        metrics[f"{module}.self_share"] = (100.0 * mine / total if total else 0.0, "%")
    metrics["trace.untraced_ops_per_s"] = (plain.ops_per_s, "1/s")
    metrics["trace.traced_ops_per_s"] = (traced.ops_per_s, "1/s")
    metrics["trace.ops_per_s_ratio"] = (traced.ops_per_s / plain.ops_per_s, "ratio")
    metrics["trace.output_mismatches"] = (mismatches, "count")

    spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
    report = _report(wl, args, root)
    report.update(
        untraced=_ops_block(plain),
        traced=_ops_block(traced),
        run_check_failures=run_failures,
        bit_identical={"compared_ops": compared, "mismatches": mismatches},
        spans={"file": os.path.relpath(spans_path, root), "count": tracer.write(spans_path),
               "cli_child_summaries": len(wl.child_summaries)},
        computed=["well.build_overlap_table.table_bytes", "dynamics.series_terms"],
        self_time_share_pct={m: metrics[f"{m}.self_share"][0] for m in MODULES},
    )
    correct = plain.failed == 0 and traced.failed == 0 and not run_failures and mismatches == 0
    stats = Stats()
    stats.attempted = plain.attempted + traced.attempted
    stats.failed = plain.failed + traced.failed
    return report, _line(correct, stats, metrics)


def _line(correct: bool, stats: Stats, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _report(wl, args, root: str) -> dict:
    why = None
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}.get(args.workload)
    except (OSError, ValueError, KeyError):
        pass
    return {
        "workload": args.workload,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load_model": "closed loop, one caller, one process",
        "inputs": wl.inputs(),
        "workload_report": wl.report(),
        "provenance": provenance(root),
    }


def provenance(root: str) -> dict:
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "blas": blas,
        "thread_env": threads,
    }


def _git_commit(root: str):
    """HEAD commit of the checkout; None outside a git checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None
