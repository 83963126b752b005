"""causalvqa benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload erm-train --seed 1 --seconds 20 --trace 0

Run from the repository root. The workload's inputs are generated from
--seed before timing starts; the run then repeats the workload for
--seconds, checks every output, and prints a human-readable table followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics with tracing off. --trace 1
alternates untraced and traced episodes (set-up plus one repeat each) for
--seconds and reports per-layer metrics from the spans, plus the tracing
overhead: the median traced episode minus the median untraced one. The
spans are written to .bench_work/traces/<workload>.csv.

BLAS and OpenMP are pinned to one thread through the environment before
NumPy is imported; the run starts no threads or processes.
"""

from __future__ import annotations

import os

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import layers
from spans import SpanRecorder, percentile, summarize, tail_percentile

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3
MAX_LINES = 60  # of the table and failure messages printed
# Reference loop: small matrix-vector products driven from Python, the kind of
# work the package does. Timed between repeats, it tracks the machine's speed,
# which drifts by tens of percent over minutes on a shared host; the bounded
# timings are scaled to the speed at which the loop takes REF_SECONDS.
REF_ITERS = 8000
REF_SECONDS = 0.020
clock = time.perf_counter


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "causalvqa" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no causalvqa package source under {src}")
    sys.path.insert(0, str(src))


def _git_sha() -> str:
    """Commit of the checkout, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def env_record() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(),
    }


def _attempt(w, state, out_dir: Path, first):
    """One repeat and its checks; returns (output or None, problems)."""
    try:
        out = w.run(state, out_dir, clock)
        return out, w.check(state, out, first)
    except Exception as exc:  # a repeat that raises is counted as failed, the run goes on
        return None, [f"{type(exc).__name__}: {exc}"]


def _tail_text(values: list[float]) -> str:
    p = tail_percentile(len(values))
    tail = "no percentile has 10 samples beyond it" if p is None else (
        f"p{p:g} {percentile(values, p):.6g}"
    )
    return f"median {statistics.median(values):.6g}, {tail}, n={len(values)}"


def _reference_seconds(matrix: np.ndarray) -> float:
    t0 = clock()
    acc = 0.0
    for i in range(REF_ITERS):
        acc += float(matrix[i % 64] @ matrix[:, i % 64])
    return clock() - t0


def run_plain(w, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    config = w.generate(seed, workdir)
    ref_matrix = np.random.default_rng(0).normal(size=(64, 64))
    # Each repeat sets up afresh, so set-up samples are spread over the run
    # like the repeats are. Samples are (raw value, speed factor) pairs, the
    # factor being REF_SECONDS over the reference time around the repeat.
    setups, rates, failures = [], [], []
    first = first_state = None
    attempted = failed = 0
    ref_before = _reference_seconds(ref_matrix)
    deadline = clock() + seconds
    while attempted < MIN_REPEATS or clock() < deadline:
        attempted += 1
        t0 = clock()
        state = w.setup(config)
        setup_seconds = clock() - t0
        out, problems = _attempt(w, state, workdir / "out", first)
        ref_after = _reference_seconds(ref_matrix)
        speed = 2 * REF_SECONDS / (ref_before + ref_after)
        ref_before = ref_after
        setups.append((setup_seconds, speed))
        if problems:
            failed += 1
            failures += [f"repeat {attempted}: {p}" for p in problems]
            continue
        if first is None:
            first, first_state = out, state
        rates.append((out.items / out.seconds, speed))
    if first is not None:
        deep = w.deep_check(first_state, first)
        if deep:
            failed += 1
            failures += [f"first good repeat: {p}" for p in deep]

    setup_s = [raw * speed for raw, speed in setups]
    items_per_s = [raw / speed for raw, speed in rates]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (statistics.median(items_per_s) if rates else 0.0, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = [
        f"  timings scaled to a {1e3 * REF_SECONDS:g} ms reference loop "
        f"(measured median {1e3 * REF_SECONDS / statistics.median(s for _, s in setups):.4g} ms)",
        f"  setup_s      {metrics['setup_s'][0]:.6g} s    ({_tail_text(setup_s)}; "
        f"unscaled median {statistics.median(raw for raw, _ in setups):.6g})",
        f"  items_per_s  {metrics['items_per_s'][0]:.6g} 1/s  ({w.items_label})",
    ]
    if rates:
        lines.append(f"    ms per item: {_tail_text([1e3 / r for r in items_per_s])}; "
                     f"unscaled median {statistics.median(raw for raw, _ in rates):.6g} 1/s")
    lines.append(f"  peak_rss_mb  {peak_rss_mb:.6g} MB")
    if first is not None:
        quality = "  ".join(f"{k}={v:.6g}" for k, v in w.quality(first).items())
        lines.append(f"  quality (deterministic per seed, checked, not bounded): {quality}")
    lines.append(f"  failed_share {failed}/{attempted} = {failed / attempted:.6g}")
    return _result(metrics, attempted, failed), lines + failures


def run_traced(w, seed: int, seconds: float, workdir: Path) -> tuple[dict, list[str]]:
    config = w.generate(seed, workdir)

    def episode(first):
        t0 = clock()
        state = w.setup(config)
        out, problems = _attempt(w, state, workdir / "out", first)
        return clock() - t0, state, out, problems

    # Untraced and traced episodes alternate, so that drift in the machine's
    # speed falls on both sides of the overhead comparison.
    untraced, traced, failures = [], [], []
    recorder = SpanRecorder(clock)
    first = state = None
    failed = 0
    deadline = clock() + seconds
    while len(traced) < MIN_REPEATS or clock() < deadline:
        for walls, tracing in ((untraced, False), (traced, True)):
            with recorder.patched(layers.targets()) if tracing else nullcontext():
                wall, state, out, problems = episode(first)
            walls.append(wall)
            failed += bool(problems)
            failures += problems
            first = first or out
    if first is not None:
        deep = w.deep_check(state, first)
        failures += deep
        failed += bool(deep)

    episodes = len(traced)
    metrics = layers.per_layer_metrics(summarize(recorder.spans), recorder.spans, traced, untraced)
    trace_path = WORK / "traces" / f"{w.name}.csv"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    recorder.write_csv(trace_path)

    units = layers.metric_names()
    shares = sorted(
        ((v, k[: -len(".share")]) for k, v in metrics.items() if k.endswith(".share")),
        reverse=True,
    )
    lines = [
        f"  {episodes} untraced and {episodes} traced episodes (set-up plus one repeat each)",
        f"  traced episode median {metrics['trace.wall_s']:.6g} s, "
        f"overhead {metrics['trace.overhead_s']:.6g} s "
        f"({100 * metrics['trace.overhead_share']:.3g} %)",
        f"  {len(recorder.spans)} spans written to {trace_path.relative_to(ROOT)}",
        "  largest self-time shares:",
    ]
    for share, name in shares[:8]:
        lines.append(
            f"    {name:36s} {100 * share:6.2f} %  calls/episode {metrics[name + '.calls']:.0f}"
        )
    result = _result({k: (v, units[k][0]) for k, v in metrics.items()}, 2 * episodes, failed)
    return result, lines + failures


def _result(metrics: dict, attempted: int, failed: int) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    workdir = WORK / f"{w.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_plain
        result, lines = run(w, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env_record(), sort_keys=True))
    print("\n".join(lines[:MAX_LINES]))
    if len(lines) > MAX_LINES:
        print(f"  ... {len(lines) - MAX_LINES} more lines")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
