"""In-process A/B of one benchmark workload: a parent revision's package
against the working tree's, both imported into one process.

    python tools/ab.py --parent HEAD~1 --workload intervene-eval --seed 11 --pairs 20

Run from anywhere inside the repository. `git archive` writes the parent's
src/ into .bench_work/; each tree is imported under its own package name
(causalvqa_a, causalvqa_b), which works because the package imports
itself relatively. perfbench/workloads.py is read once per import with its
causalvqa imports rewritten to that name, so each side generates its own
inputs from --seed (once, on its first import) and runs its own workload
objects. Every pair imports both trees afresh, the tree imported first,
under causalvqa_a, alternating by pair, so that an offset which follows
the import order or the name rather than the tree cancels over pairs; the
ratio is also reported apart for the pairs in which each tree came first.
A pair's imports replace the last pair's modules whole: features.read_section
resolves dataclass type hints through sys.modules[cls.__module__], so one
import's modules are never mixed with another's.

A pair is REPEATS repeats (set-up, then the timed run) of each side, the
side that goes first alternating by repeat (ABBA order), after one
untimed repeat per side; a side's value in a pair is the median of its
repeats. Times are unscaled time.perf_counter readings. Each repeat's
outputs are checked as perfbench/run.py checks them, and the two sides'
output files and quality figures must be equal in every round.

It prints, for setup_s and items_per_s: each side's median and quartiles,
the median of the per-pair ratios change/parent with a bootstrap 95 %
interval over pairs, that median over the pairs in which each tree was
imported first, the pairs the change won (ties count for neither) and
whether the claim rule holds (wins in at least nine tenths of the pairs,
and medians further apart than the parent's quartile spread). The last
line is the same record as JSON, with perfbench's environment record.
peak_rss_mb is a whole-process figure and needs separate-process runs
(perfbench/run.py). So does any change whose effect is process-global,
such as BLAS or allocator state.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
SIDES = ("parent", "change")
# metric -> True where higher is better
METRICS = {"setup_s": False, "items_per_s": True}
BOOTSTRAP = 2000
# repeats per side in one pair, whose value for a side is their median
REPEATS = 21


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True).stdout


def _archive_src(rev: str, into: Path) -> str:
    """Write rev's src/ under into; returns the commit's sha."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", sha, "src"))) as tar:
        tar.extractall(into, filter="data")
    return sha


PACKAGES = ("causalvqa_a", "causalvqa_b")


def _import_package(name: str, directory: Path) -> types.ModuleType:
    """The package in directory, imported as name, after dropping every
    module an earlier import left under name."""
    for module in [m for m in sys.modules if m.split(".")[0] in (name, f"workloads_{name}")]:
        del sys.modules[module]
    spec = importlib.util.spec_from_file_location(
        name, directory / "__init__.py", submodule_search_locations=[str(directory)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _import_workloads(package: str) -> types.ModuleType:
    """perfbench/workloads.py with its causalvqa imports naming package."""
    path = PERFBENCH / "workloads.py"
    text = re.sub(r"^(from|import) causalvqa\b", rf"\1 {package}", path.read_text(),
                  flags=re.MULTILINE)
    module = types.ModuleType(f"workloads_{package}")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    exec(compile(text, str(path), "exec"), module.__dict__)
    return module


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


class Side:
    """One import of a tree: its workload, the tree's generated inputs and
    first good output, and the state and output of this import's last
    repeat."""

    def __init__(self, workload, workdir: Path, config: Path, first=None):
        self.w, self.out_dir, self.config, self.first = workload, workdir / "out", config, first
        self.last = None

    def repeat(self) -> tuple[float, float, object]:
        """One set-up and timed run; returns (setup_s, items_per_s, output)."""
        gc.collect()
        shutil.rmtree(self.out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        state = self.w.setup(self.config)
        setup_s = time.perf_counter() - t0
        out = self.w.run(state, self.out_dir, time.perf_counter)
        problems = self.w.check(state, out, self.first)
        if problems:
            raise SystemExit("ab: " + "; ".join(problems))
        self.first = out if self.first is None else self.first
        self.last = state, out
        return setup_s, out.items / out.seconds, out


def _quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _summary(parent: list[float], change: list[float], higher_better: bool,
             firsts: list[str]) -> dict:
    ratios = np.array(change) / np.array(parent)
    better = ratios > 1 if higher_better else ratios < 1
    wins = int(better.sum())
    ties = int((ratios == 1).sum())
    q_parent, q_change = _quartiles(parent), _quartiles(change)
    boot = np.median(ratios[np.random.default_rng(0).integers(
        0, len(ratios), (BOOTSTRAP, len(ratios)))], axis=1)
    spread = q_parent[2] - q_parent[0]
    return {
        "parent_median": q_parent[1], "parent_quartiles": [q_parent[0], q_parent[2]],
        "change_median": q_change[1], "change_quartiles": [q_change[0], q_change[2]],
        "median_ratio": float(np.median(ratios)),
        "ratio_95ci": [float(np.quantile(boot, 0.025)), float(np.quantile(boot, 0.975))],
        "median_ratio_by_first_import": {
            side: float(np.median(ratios[np.array(firsts) == side])) for side in sorted(set(firsts))
        },
        "change_wins": wins, "ties": ties, "pairs": len(ratios),
        "claim_rule_met": bool(wins >= 0.9 * len(ratios)
                               and abs(q_change[1] - q_parent[1]) > spread
                               and (q_change[1] > q_parent[1]) == higher_better),
        "parent": parent, "change": change,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    sys.path.insert(0, str(PERFBENCH))
    import run as perfbench_run

    work = REPO / ".bench_work" / f"ab-{os.getpid()}"
    try:
        sha = _archive_src(args.parent, work / "parent")
        trees = {"parent": work / "parent" / "src" / "causalvqa",
                 "change": REPO / "src" / "causalvqa"}
        sides, firsts = {}, []
        samples = {side: {m: [] for m in METRICS} for side in SIDES}
        for i in range(args.pairs):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            firsts.append(order[0])
            for side, package in zip(order, PACKAGES):
                _import_package(package, trees[side])
                workloads = _import_workloads(package).WORKLOADS
                if args.workload not in workloads:
                    parser.error(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(workloads)}")
                w, old = workloads[args.workload], sides.get(side)
                config = w.generate(args.seed, work / side) if old is None else old.config
                sides[side] = Side(w, work / side, config, None if old is None else old.first)
            for side in order:  # untimed: this import's lazy state, and the checks' first output
                sides[side].repeat()
            runs = {side: {m: [] for m in METRICS} for side in SIDES}
            for r in range(REPEATS):
                outputs = {}
                for side in SIDES if (i * REPEATS + r) % 2 == 0 else SIDES[::-1]:
                    setup_s, items_per_s, out = sides[side].repeat()
                    runs[side]["setup_s"].append(setup_s)
                    runs[side]["items_per_s"].append(items_per_s)
                    outputs[side] = (_files(sides[side].out_dir), sides[side].w.quality(out))
                if outputs["parent"] != outputs["change"]:
                    raise SystemExit(f"ab: pair {i}: the two sides' outputs differ")
            for side in SIDES:
                for m in METRICS:
                    samples[side][m].append(statistics.median(runs[side][m]))
        for side in SIDES:
            problems = sides[side].w.deep_check(*sides[side].last)
            if problems:
                raise SystemExit(f"ab: {side}: " + "; ".join(problems))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs,
        "repeats_per_pair": REPEATS,
        "parent": sha, "change": "working tree", "clock": "time.perf_counter, unscaled",
        "outputs_equal": True, "first_imported": firsts,
        "metrics": {m: _summary(samples["parent"][m], samples["change"][m], higher, firsts)
                    for m, higher in METRICS.items()},
        "env": perfbench_run.env_record(),
    }
    print(f"ab {args.workload} seed={args.seed} pairs={args.pairs} of {REPEATS} repeats "
          f"parent={sha[:10]}")
    for m, s in record["metrics"].items():
        print(f"  {m:12s} parent {s['parent_median']:.6g} [{s['parent_quartiles'][0]:.6g}, "
              f"{s['parent_quartiles'][1]:.6g}]  change {s['change_median']:.6g} "
              f"[{s['change_quartiles'][0]:.6g}, {s['change_quartiles'][1]:.6g}]  "
              f"ratio {s['median_ratio']:.4f} (95% {s['ratio_95ci'][0]:.4f}-"
              f"{s['ratio_95ci'][1]:.4f})  wins {s['change_wins']}/{s['pairs']}  "
              f"claim rule {'met' if s['claim_rule_met'] else 'not met'}")
        print("  " + " " * 12 + "  ratio with the parent imported first "
              f"{s['median_ratio_by_first_import'].get('parent', float('nan')):.4f}, "
              f"with the change first {s['median_ratio_by_first_import'].get('change', float('nan')):.4f}")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
